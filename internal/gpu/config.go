// Package gpu is the performance-model substrate: a configurable GPU
// pipeline simulator that prices draw calls in nanoseconds.
//
// The paper evaluates subsets on a proprietary cycle-level GPU
// simulator. This package substitutes a deterministic analytic pipeline
// model with the properties the methodology actually depends on:
//
//   - cost is a pure function of (draw call, config) — the subsetting
//     pipeline uses the simulator as a black-box cost oracle;
//   - work scales with the micro-architecture independent quantities
//     that clustering features are built from (vertices, shader
//     instruction mix, covered pixels, texture working sets);
//   - execution has distinct compute- and memory-bound regimes on
//     separate clock domains, so frequency sweeps produce non-trivial
//     speedup curves to correlate (the paper's validation experiment);
//   - an exact set-associative LRU texture cache is available in
//     detailed mode to back the analytic hit-rate model.
package gpu

import (
	"fmt"
	"math"
)

// Config describes one GPU architecture configuration — the thing
// pathfinding enumerates. The zero value is not usable; start from
// BaseConfig and derive variants.
type Config struct {
	Name string

	// Clock domains. The core clock drives shader EUs and fixed
	// function; the memory clock scales DRAM bandwidth.
	CoreClockGHz float64
	MemClockGHz  float64

	// Shader array.
	NumEUs    int // execution units
	SIMDWidth int // lanes per EU

	// Fixed-function throughputs, in units per core clock.
	PrimSetupRate float64 // primitives/clk
	RasterRate    float64 // pixels/clk
	ROPRate       float64 // pixels/clk

	// Texture cache geometry (per-GPU shared cache).
	TexCacheKB    int
	TexCacheLineB int
	TexCacheWays  int

	// DRAM: bytes transferred per memory clock (bandwidth =
	// DRAMBytesPerClk * MemClockGHz GB/s).
	DRAMBytesPerClk float64

	// DrawOverheadNs is the fixed front-end cost of submitting one
	// draw (state validation, command processing). Context-free by
	// design: representative costs must transfer across draws.
	DrawOverheadNs float64

	// OverlapBeta controls compute/memory overlap: draw time is
	// max(tc, tm) + OverlapBeta*min(tc, tm). 0 = perfect overlap,
	// 1 = fully serialized.
	OverlapBeta float64

	// VertexSizeB is the average fetched vertex size in bytes.
	VertexSizeB int

	// ColorCompression and DepthCompression scale render-target and
	// depth-buffer DRAM traffic, modeling the lossless framebuffer
	// compression every modern GPU applies ((0, 1]; 1 = uncompressed).
	ColorCompression float64
	DepthCompression float64

	// NoiseAmp and NoiseRefNs model micro-architectural cost variation
	// invisible to MAI characteristics (cache set alignment,
	// scheduling, DRAM bank conflicts). Each draw's total is scaled by
	// a content-hashed lognormal factor whose sigma is
	// NoiseAmp*sqrt(NoiseRefNs/cost): fixed-size disturbances weigh
	// relatively more on cheap draws, exactly as on real hardware.
	// The hash depends only on draw content, so a draw carries nearly
	// the same factor across an architecture sweep — clustering
	// accuracy is bounded the way it is on real simulators, while
	// scaling studies stay clean. NoiseAmp 0 disables the term.
	NoiseAmp   float64
	NoiseRefNs float64
}

// BaseConfig returns the reference configuration used throughout the
// experiments: a mid-range integrated GPU circa the paper's era
// (8 EUs x SIMD8 at 1 GHz, ~25 GB/s DRAM).
func BaseConfig() Config {
	return Config{
		Name:             "base",
		CoreClockGHz:     1.0,
		MemClockGHz:      1.0,
		NumEUs:           8,
		SIMDWidth:        8,
		PrimSetupRate:    1,
		RasterRate:       8,
		ROPRate:          8,
		TexCacheKB:       256,
		TexCacheLineB:    64,
		TexCacheWays:     8,
		DRAMBytesPerClk:  25.6, // 25.6 GB/s at 1 GHz
		DrawOverheadNs:   500,
		OverlapBeta:      0.15,
		VertexSizeB:      24,
		ColorCompression: 0.5,
		DepthCompression: 0.25, // hierarchical Z + plane compression
		NoiseAmp:         0.08,
		NoiseRefNs:       5000,
	}
}

// LowPowerConfig returns a tablet/phone-class configuration: narrow
// shader array, low clocks, small cache, LPDDR-class bandwidth — the
// "expansion of gaming to new devices" end of the paper's motivation.
func LowPowerConfig() Config {
	c := BaseConfig()
	c.Name = "lowpower"
	c.CoreClockGHz = 0.45
	c.MemClockGHz = 0.8
	c.NumEUs = 4
	c.TexCacheKB = 128
	c.DRAMBytesPerClk = 12.8
	c.DrawOverheadNs = 800
	return c
}

// EnthusiastConfig returns a high-end discrete-class configuration:
// wide shader array, high clocks, large cache, GDDR-class bandwidth.
func EnthusiastConfig() Config {
	c := BaseConfig()
	c.Name = "enthusiast"
	c.CoreClockGHz = 1.6
	c.MemClockGHz = 2.0
	c.NumEUs = 32
	c.SIMDWidth = 16
	c.RasterRate = 32
	c.ROPRate = 32
	c.PrimSetupRate = 4
	c.TexCacheKB = 2048
	c.DRAMBytesPerClk = 128
	c.DrawOverheadNs = 300
	return c
}

// Tiers returns the three built-in device tiers, low to high.
func Tiers() []Config {
	return []Config{LowPowerConfig(), BaseConfig(), EnthusiastConfig()}
}

// WithCoreClock returns a copy of c running at the given core clock.
func (c Config) WithCoreClock(ghz float64) Config {
	c.CoreClockGHz = ghz
	c.Name = fmt.Sprintf("%s@core%.2f", c.Name, ghz)
	return c
}

// WithMemClock returns a copy of c running at the given memory clock.
func (c Config) WithMemClock(ghz float64) Config {
	c.MemClockGHz = ghz
	c.Name = fmt.Sprintf("%s@mem%.2f", c.Name, ghz)
	return c
}

// ShaderRate returns shader-element throughput in elements x
// instructions per core clock: the denominator of all shader timing.
func (c Config) ShaderRate() float64 { return c.shaderRate() }

// BandwidthGBs returns effective DRAM bandwidth in GB/s.
func (c Config) BandwidthGBs() float64 { return c.bandwidth() }

// shaderRate and bandwidth are ShaderRate and BandwidthGBs without
// copying the config — the pricing loop's forms.
func (c *Config) shaderRate() float64 { return float64(c.NumEUs * c.SIMDWidth) }
func (c *Config) bandwidth() float64  { return c.DRAMBytesPerClk * c.MemClockGHz }

// Validate reports the first structural problem with the config.
// Every float64 field must be finite, and each range check is written
// so that NaN fails it: a NaN or infinite clock, rate or cost would
// price every draw as NaN or as its bare overhead.
func (c Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("gpu: config has empty name")
	case !positive(c.CoreClockGHz):
		return fmt.Errorf("gpu: %s: core clock %v not a positive finite number", c.Name, c.CoreClockGHz)
	case !positive(c.MemClockGHz):
		return fmt.Errorf("gpu: %s: mem clock %v not a positive finite number", c.Name, c.MemClockGHz)
	case c.NumEUs <= 0 || c.SIMDWidth <= 0:
		return fmt.Errorf("gpu: %s: shader array %dx%d invalid", c.Name, c.NumEUs, c.SIMDWidth)
	case !positive(c.PrimSetupRate) || !positive(c.RasterRate) || !positive(c.ROPRate):
		return fmt.Errorf("gpu: %s: fixed-function rates must be positive and finite", c.Name)
	case c.TexCacheKB <= 0 || c.TexCacheLineB <= 0 || c.TexCacheWays <= 0:
		return fmt.Errorf("gpu: %s: texture cache geometry invalid", c.Name)
	case c.TexCacheKB*1024%(c.TexCacheLineB*c.TexCacheWays) != 0:
		return fmt.Errorf("gpu: %s: cache size %dKB not divisible into %d-way sets of %dB lines",
			c.Name, c.TexCacheKB, c.TexCacheWays, c.TexCacheLineB)
	case !positive(c.DRAMBytesPerClk):
		return fmt.Errorf("gpu: %s: DRAM bytes/clk %v not a positive finite number", c.Name, c.DRAMBytesPerClk)
	case !(c.DrawOverheadNs >= 0 && c.DrawOverheadNs <= math.MaxFloat64):
		return fmt.Errorf("gpu: %s: draw overhead %v not a finite number >= 0", c.Name, c.DrawOverheadNs)
	case !(c.OverlapBeta >= 0 && c.OverlapBeta <= 1):
		return fmt.Errorf("gpu: %s: overlap beta %v outside [0, 1]", c.Name, c.OverlapBeta)
	case c.VertexSizeB <= 0:
		return fmt.Errorf("gpu: %s: vertex size %v <= 0", c.Name, c.VertexSizeB)
	case !(c.ColorCompression > 0 && c.ColorCompression <= 1):
		return fmt.Errorf("gpu: %s: color compression %v outside (0, 1]", c.Name, c.ColorCompression)
	case !(c.DepthCompression > 0 && c.DepthCompression <= 1):
		return fmt.Errorf("gpu: %s: depth compression %v outside (0, 1]", c.Name, c.DepthCompression)
	case !(c.NoiseAmp >= 0 && c.NoiseAmp < 1):
		return fmt.Errorf("gpu: %s: noise amplitude %v outside [0, 1)", c.Name, c.NoiseAmp)
	case math.IsNaN(c.NoiseRefNs) || math.IsInf(c.NoiseRefNs, 0):
		return fmt.Errorf("gpu: %s: noise reference cost %v not finite", c.Name, c.NoiseRefNs)
	case c.NoiseAmp > 0 && c.NoiseRefNs <= 0:
		return fmt.Errorf("gpu: %s: noise reference cost %v <= 0", c.Name, c.NoiseRefNs)
	}
	return nil
}

// positive reports 0 < x < +Inf. NaN fails, as it fails every
// comparison.
func positive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }
