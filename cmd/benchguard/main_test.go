package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func ratios(v float64) map[string]map[string]float64 {
	return map[string]map[string]float64{"HotPath": {"bucketed": v, "streaming": 2.0}}
}

func TestCheckBaselineRegression(t *testing.T) {
	base := ratios(5.0)
	if bad := check(ratios(5.2), base, nil, 0.10); len(bad) != 0 {
		t.Errorf("improvement flagged: %v", bad)
	}
	if bad := check(ratios(4.6), base, nil, 0.10); len(bad) != 0 {
		t.Errorf("within-tolerance dip flagged: %v", bad)
	}
	bad := check(ratios(4.2), base, nil, 0.10)
	if len(bad) != 1 || !strings.Contains(bad[0], "HotPath/bucketed") {
		t.Errorf("regression not flagged: %v", bad)
	}
}

func TestCheckMissingArm(t *testing.T) {
	cur := map[string]map[string]float64{"HotPath": {"bucketed": 5.0}}
	bad := check(cur, ratios(5.0), nil, 0.10)
	if len(bad) != 1 || !strings.Contains(bad[0], "streaming") || !strings.Contains(bad[0], "missing") {
		t.Errorf("missing arm not flagged: %v", bad)
	}
}

func TestCheckMinFloor(t *testing.T) {
	mins := []minSpec{{group: "HotPath", path: "bucketed", floor: 4.0}}
	if bad := check(ratios(4.5), nil, mins, 0.10); len(bad) != 0 {
		t.Errorf("floor met but flagged: %v", bad)
	}
	bad := check(ratios(3.5), nil, mins, 0.10)
	if len(bad) != 1 || !strings.Contains(bad[0], "below floor") {
		t.Errorf("floor miss not flagged: %v", bad)
	}
}

func TestMinFlagParsing(t *testing.T) {
	var m minFlags
	if err := m.Set("HotPath/bucketed=4.5"); err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m[0].group != "HotPath" || m[0].path != "bucketed" || m[0].floor != 4.5 {
		t.Errorf("parsed %+v", m)
	}
	for _, bad := range []string{"nofloor", "noslash=1", "/x=1", "g/=1", "g/p=notanumber"} {
		if err := m.Set(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	baseline := write("base.json", `{"speedup_vs_naive":{"HotPath":{"bucketed":5.0}}}`)
	good := write("good.json", `{"speedup_vs_naive":{"HotPath":{"bucketed":5.5}}}`)
	slow := write("slow.json", `{"speedup_vs_naive":{"HotPath":{"bucketed":2.0}}}`)
	empty := write("empty.json", `{"benchmarks":[]}`)

	if err := run(good, baseline, nil, 0.10); err != nil {
		t.Errorf("good run failed: %v", err)
	}
	if err := run(slow, baseline, nil, 0.10); err == nil {
		t.Error("regressed run passed")
	}
	if err := run(good, "", minFlags{{group: "HotPath", path: "bucketed", floor: 9.0}}, 0.10); err == nil {
		t.Error("floor miss passed")
	}
	if err := run(good, "", nil, 0.10); err == nil {
		t.Error("no-gate invocation passed")
	}
	if err := run(empty, baseline, nil, 0.10); err == nil {
		t.Error("file without speedups passed")
	}
	if err := run(good, baseline, nil, 1.5); err == nil {
		t.Error("bad -max-regress accepted")
	}
}

func TestMarginsPrintFloorMarginAndSpread(t *testing.T) {
	cur := map[string]map[string]float64{"CoordSweep": {"workers2": 1.56, "workers3": 2.0}}
	base := map[string]map[string]float64{"CoordSweep": {"workers2": 1.6}}
	mins := []minSpec{{group: "CoordSweep", path: "workers2", floor: 1.3}}
	spread := map[string]float64{"CoordSweep/path=naive": 0.05, "CoordSweep/path=workers2": 0.125}
	got := margins(cur, base, mins, 0.25, spread)
	want := []string{
		// The -min floor (1.30x) is stricter than the baseline's 1.20x.
		"CoordSweep/workers2 1.56x, floor 1.30x, margin +20.0%, spread naive 5.0% / workers2 12.5%",
		"CoordSweep/workers3 2.00x, spread naive 5.0% / workers3 0.0%",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("margins =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
