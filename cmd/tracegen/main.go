// Command tracegen generates synthetic 3D workload traces.
//
// Usage:
//
//	tracegen -out dir [-seed 42] [-game bioshock1|bioshock2|bioshockinf|suite] [-json]
//	tracegen -out dir -inject-faults flip:4096,tear:16384:64 [-inject-seed 7]
//
// It writes one .trace file per game — the checksummed stream container
// that subset3d reads with either -trace or -stream — plus .json when
// -json is set, which subset3d and gpusim read as well, and prints the
// corpus summary table. -inject-faults additionally writes a
// deliberately damaged copy of the container, .faulty.stream, per game
// (bit flips, zero runs, tears, truncation — see internal/faultinject)
// for end-to-end ingestion drills against subset3d -lenient.
//
// Observability: -log-level {debug,info,warn,error,off} enables
// structured stderr logging, -manifest out.json exports the run
// manifest (one stage per game, fault-injection counters, SHA-256
// digests of every file written), -pprof-dir writes CPU/heap profiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/trace"
)

type config struct {
	out      string
	seed     uint64
	game     string
	asJSON   bool
	spec     faultinject.Spec
	logLevel string
	manifest string
	pprofDir string
	stdout   io.Writer
}

func main() {
	var cfg config
	var faults string
	var faultsSeed uint64
	flag.StringVar(&cfg.out, "out", ".", "output directory")
	flag.Uint64Var(&cfg.seed, "seed", 42, "generator seed")
	flag.StringVar(&cfg.game, "game", "suite", "game profile: bioshock1, bioshock2, bioshockinf or suite")
	flag.BoolVar(&cfg.asJSON, "json", false, "additionally write JSON alongside the binary trace")
	flag.StringVar(&faults, "inject-faults", "", "additionally write a damaged .faulty.stream using this fault spec (e.g. flip:4096,tear:16384:64,truncate:100000)")
	flag.Uint64Var(&faultsSeed, "inject-seed", 1, "fault injection seed")
	flag.StringVar(&cfg.logLevel, "log-level", "off", "structured logging to stderr: debug, info, warn, error or off")
	flag.StringVar(&cfg.manifest, "manifest", "", "write the run manifest (stages, fault counters, output digests) to this JSON file")
	flag.StringVar(&cfg.pprofDir, "pprof-dir", "", "write cpu.pprof and heap.pprof to this directory")
	flag.Parse()
	cfg.stdout = os.Stdout
	if faults != "" {
		var err error
		if cfg.spec, err = faultinject.ParseSpec(faults); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(2)
		}
		cfg.spec.Seed = faultsSeed
	}
	if err := execute(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func execute(cfg config) error {
	run, stopProf, err := obs.SetupCLI("tracegen", cfg.logLevel, cfg.pprofDir)
	if err != nil {
		return err
	}
	ctx := run.Context(context.Background())

	err = generate(ctx, run, cfg)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if merr := run.WriteManifest(cfg.manifest); err == nil {
		err = merr
	}
	return err
}

func generate(ctx context.Context, run *obs.Run, cfg config) error {
	var profiles []synth.Profile
	switch cfg.game {
	case "suite":
		profiles = synth.SuiteProfiles()
	case "bioshock1":
		profiles = []synth.Profile{synth.Bioshock1Profile()}
	case "bioshock2":
		profiles = []synth.Profile{synth.Bioshock2Profile()}
	case "bioshockinf":
		profiles = []synth.Profile{synth.BioshockInfiniteProfile()}
	default:
		return fmt.Errorf("unknown game %q", cfg.game)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	// wrote records one output file: printed, digested into the
	// manifest, and counted.
	wrote := func(path, note string) {
		if note != "" {
			fmt.Fprintf(cfg.stdout, "wrote %s (%s)\n", path, note)
		} else {
			fmt.Fprintf(cfg.stdout, "wrote %s\n", path)
		}
		run.RecordFile("output", path)
		run.Metrics().Counter("tracegen.files_written").Inc()
	}
	var workloads []*trace.Workload
	for i, p := range profiles {
		w, err := synth.Generate(p, cfg.seed+uint64(i)*0x9e3779b97f4a7c15)
		if err != nil {
			return err
		}
		_, sp := obs.StartSpan(ctx, "generate-"+w.Name)
		sp.AddItems(int64(w.NumFrames()))
		workloads = append(workloads, w)
		path := filepath.Join(cfg.out, w.Name+".trace")
		if err := writeTrace(w, path); err != nil {
			sp.End()
			return err
		}
		wrote(path, "")
		if cfg.asJSON {
			jpath := filepath.Join(cfg.out, w.Name+".json")
			if err := writeJSON(w, jpath); err != nil {
				sp.End()
				return err
			}
			wrote(jpath, "")
		}
		if cfg.spec.Active() {
			fpath := filepath.Join(cfg.out, w.Name+".faulty.stream")
			stats, err := writeFaulty(w, fpath, cfg.spec)
			if err != nil {
				sp.End()
				return err
			}
			wrote(fpath, "faults injected")
			reg := run.Metrics()
			reg.Counter("faultinject.bits_flipped").Add(stats.BitsFlipped)
			reg.Counter("faultinject.zero_runs").Add(stats.ZeroRuns)
			reg.Counter("faultinject.tears").Add(stats.Tears)
			if stats.Truncated {
				reg.Counter("faultinject.truncated").Inc()
			}
			reg.Counter("faultinject.bytes_in").Add(stats.BytesIn)
			reg.Counter("faultinject.bytes_out").Add(stats.BytesOut)
			run.Logger().Info("faults injected", "file", fpath,
				"total", stats.Total(), "bits_flipped", stats.BitsFlipped,
				"zero_runs", stats.ZeroRuns, "tears", stats.Tears,
				"truncated", stats.Truncated)
		}
		sp.End()
	}
	trace.WriteTable(cfg.stdout, workloads)
	return nil
}

func writeTrace(w *trace.Workload, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := w.Encode(f); err != nil {
		return err
	}
	return f.Close()
}

func writeJSON(w *trace.Workload, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := w.EncodeJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// writeFaulty writes the container through the fault-injecting
// corruptor — the damage lands on disk exactly as a faulty storage
// layer would leave it — and reports what damage was done.
func writeFaulty(w *trace.Workload, path string, spec faultinject.Spec) (faultinject.Stats, error) {
	f, err := os.Create(path)
	if err != nil {
		return faultinject.Stats{}, err
	}
	defer f.Close()
	fw := faultinject.NewWriter(f, spec)
	if err := w.Encode(fw); err != nil {
		return faultinject.Stats{}, err
	}
	return fw.Stats(), f.Close()
}
