package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRunAllContinuesPastFailures injects a failing experiment in the
// middle of the batch and asserts the driver's resilience contract:
// every experiment still runs, the failure is reported in the banner
// stream, and the failure count (main's exit signal) is exact.
func TestRunAllContinuesPastFailures(t *testing.T) {
	var order []string
	mk := func(id string, err error) experiment {
		return experiment{id: id, title: "test " + id, run: func(*ctx) error {
			order = append(order, id)
			return err
		}}
	}
	boom := errors.New("synthetic fault: corrupt input")
	exps := []experiment{
		mk("T1", nil),
		mk("T2", boom),
		mk("T3", nil),
		mk("T4", errors.New("second fault")),
		mk("T5", nil),
	}

	var out bytes.Buffer
	run := obs.NewRun("experiments-test")
	failed := runAll(exps, nil, &ctx{workers: 1, out: &out}, run)

	if failed != 2 {
		t.Errorf("failed = %d, want 2", failed)
	}
	if want := []string{"T1", "T2", "T3", "T4", "T5"}; strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("execution order %v, want %v — a failure must not stop the batch", order, want)
	}
	text := out.String()
	for _, want := range []string{
		"==== T2: test T2 ====",
		"T2 FAILED after",
		"synthetic fault: corrupt input",
		"---- T3 done in",
		"T4 FAILED after",
		"---- T5 done in",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunAllSelection: -only filtering still applies and unselected
// experiments never run.
func TestRunAllSelection(t *testing.T) {
	var order []string
	mk := func(id string, err error) experiment {
		return experiment{id: id, title: id, run: func(*ctx) error {
			order = append(order, id)
			return err
		}}
	}
	exps := []experiment{mk("T1", nil), mk("T2", errors.New("x")), mk("T3", nil)}
	var out bytes.Buffer
	failed := runAll(exps, map[string]bool{"T1": true, "T3": true}, &ctx{workers: 1, out: &out}, obs.NewRun("t"))
	if failed != 0 {
		t.Errorf("failed = %d, want 0 (failing experiment was not selected)", failed)
	}
	if strings.Join(order, ",") != "T1,T3" {
		t.Errorf("ran %v, want [T1 T3]", order)
	}
}

// TestRunAllAllGreen: a clean batch reports zero failures.
func TestRunAllAllGreen(t *testing.T) {
	ok := experiment{id: "T1", title: "ok", run: func(*ctx) error { return nil }}
	var out bytes.Buffer
	if failed := runAll([]experiment{ok, ok, ok}, nil, &ctx{workers: 1, out: &out}, obs.NewRun("t")); failed != 0 {
		t.Errorf("failed = %d, want 0", failed)
	}
	if strings.Contains(out.String(), "FAILED") {
		t.Errorf("clean batch printed a failure banner:\n%s", out.String())
	}
}
