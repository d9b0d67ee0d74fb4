package gpu

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tracetest"
)

func TestBaseConfigValid(t *testing.T) {
	if err := BaseConfig().Validate(); err != nil {
		t.Fatalf("BaseConfig invalid: %v", err)
	}
}

func TestConfigDerivation(t *testing.T) {
	c := BaseConfig().WithCoreClock(1.5)
	if c.CoreClockGHz != 1.5 {
		t.Errorf("core clock = %v", c.CoreClockGHz)
	}
	if !strings.Contains(c.Name, "core1.50") {
		t.Errorf("derived name = %q", c.Name)
	}
	// Derivation must not mutate the source.
	if BaseConfig().CoreClockGHz != 1.0 {
		t.Error("WithCoreClock mutated base")
	}
	m := BaseConfig().WithMemClock(0.5)
	if m.MemClockGHz != 0.5 || m.CoreClockGHz != 1.0 {
		t.Errorf("mem derivation wrong: %+v", m)
	}
}

func TestConfigRates(t *testing.T) {
	c := BaseConfig()
	if got := c.ShaderRate(); got != 64 {
		t.Errorf("ShaderRate = %v, want 64", got)
	}
	if got := c.BandwidthGBs(); got != 25.6 {
		t.Errorf("BandwidthGBs = %v", got)
	}
	if got := c.WithMemClock(2).BandwidthGBs(); got != 51.2 {
		t.Errorf("scaled bandwidth = %v", got)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	mutations := map[string]func(*Config){
		"empty name":     func(c *Config) { c.Name = "" },
		"zero core":      func(c *Config) { c.CoreClockGHz = 0 },
		"neg mem":        func(c *Config) { c.MemClockGHz = -1 },
		"zero EUs":       func(c *Config) { c.NumEUs = 0 },
		"zero SIMD":      func(c *Config) { c.SIMDWidth = 0 },
		"zero setup":     func(c *Config) { c.PrimSetupRate = 0 },
		"zero raster":    func(c *Config) { c.RasterRate = 0 },
		"zero rop":       func(c *Config) { c.ROPRate = 0 },
		"zero cache":     func(c *Config) { c.TexCacheKB = 0 },
		"bad geometry":   func(c *Config) { c.TexCacheKB = 7; c.TexCacheLineB = 64; c.TexCacheWays = 3 },
		"zero dram":      func(c *Config) { c.DRAMBytesPerClk = 0 },
		"neg overhead":   func(c *Config) { c.DrawOverheadNs = -1 },
		"beta too big":   func(c *Config) { c.OverlapBeta = 1.5 },
		"zero vert size": func(c *Config) { c.VertexSizeB = 0 },
	}
	for name, mutate := range mutations {
		c := BaseConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestConfigValidateRejectsNonFinite sets each float64 field of Config
// to NaN, +Inf and -Inf in turn, and each must fail validation. NaN
// passes a check written as x <= 0, and an infinite clock prices every
// draw at its bare overhead.
func TestConfigValidateRejectsNonFinite(t *testing.T) {
	rt := reflect.TypeOf(Config{})
	floats := 0
	for i := 0; i < rt.NumField(); i++ {
		if rt.Field(i).Type.Kind() != reflect.Float64 {
			continue
		}
		floats++
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := BaseConfig()
			reflect.ValueOf(&c).Elem().Field(i).SetFloat(x)
			if err := c.Validate(); err == nil {
				t.Errorf("%s = %v: accepted", rt.Field(i).Name, x)
			}
		}
	}
	if floats == 0 {
		t.Fatal("Config has no float64 field")
	}
	quiet := BaseConfig()
	quiet.NoiseAmp, quiet.NoiseRefNs = 0, math.NaN()
	if quiet.Validate() == nil {
		t.Error("NaN noise reference accepted with the noise term off")
	}
}

func TestTierConfigsValid(t *testing.T) {
	tiers := Tiers()
	if len(tiers) != 3 {
		t.Fatalf("tiers = %d", len(tiers))
	}
	names := map[string]bool{}
	for _, c := range tiers {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name, err)
		}
		names[c.Name] = true
	}
	if !names["lowpower"] || !names["base"] || !names["enthusiast"] {
		t.Errorf("tier names = %v", names)
	}
	// Tiers must be strictly ordered in raw capability.
	if !(LowPowerConfig().ShaderRate()*LowPowerConfig().CoreClockGHz <
		BaseConfig().ShaderRate()*BaseConfig().CoreClockGHz &&
		BaseConfig().ShaderRate()*BaseConfig().CoreClockGHz <
			EnthusiastConfig().ShaderRate()*EnthusiastConfig().CoreClockGHz) {
		t.Error("tier shader throughput not ordered")
	}
	if !(LowPowerConfig().BandwidthGBs() < BaseConfig().BandwidthGBs() &&
		BaseConfig().BandwidthGBs() < EnthusiastConfig().BandwidthGBs()) {
		t.Error("tier bandwidth not ordered")
	}
}

func TestTiersOrderWorkloadPerformance(t *testing.T) {
	w := tracetest.Tiny()
	var prev float64
	for i, cfg := range Tiers() {
		sim, err := NewSimulator(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		total := sim.Run().TotalNs
		if i > 0 && total >= prev {
			t.Errorf("tier %s (%v ns) not faster than previous (%v ns)", cfg.Name, total, prev)
		}
		prev = total
	}
}
