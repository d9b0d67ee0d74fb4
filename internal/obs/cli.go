package obs

import (
	"fmt"
	"os"
)

// SetupCLI is the flag wiring every command shares: it builds a Run
// for the tool, attaches a stderr logger at the parsed -log-level
// (off/"" keeps the run silent), and starts CPU+heap profiling when
// -pprof-dir is set. The returned stop function flushes the profiles;
// it is non-nil even when profiling is off, so callers always defer
// it.
func SetupCLI(tool, logLevel, pprofDir string) (*Run, func() error, error) {
	lvl, err := ParseLevel(logLevel)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", tool, err)
	}
	run := NewRun(tool)
	if lvl < LevelOff {
		run.Log = NewLogger(os.Stderr, lvl)
	}
	stop := func() error { return nil }
	if pprofDir != "" {
		stop, err = StartProfiles(pprofDir)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", tool, err)
		}
		run.Log.Info("profiling", "dir", pprofDir)
	}
	return run, stop, nil
}

// WriteManifest finishes the run and writes its manifest to path,
// with a SHA-256 of every recorded file, each hash timed as a
// "<role>-digest" child of the run's root span. A failed digest leaves
// the file's checksum empty rather than failing the run. An empty path
// still finishes the run but writes (and hashes) nothing. Call once,
// at the end of the command.
func (r *Run) WriteManifest(path string) error {
	if path != "" && r != nil {
		r.mu.Lock()
		for i, f := range r.files {
			sp := r.root.Child(f.Role + "-digest")
			d, err := DigestFile(f.Role, f.Path)
			sp.End()
			if err != nil {
				r.Log.Warn("file digest failed", "path", f.Path, "err", err)
				continue
			}
			r.files[i] = d
		}
		r.mu.Unlock()
	}
	m := r.Finish()
	if path == "" || m == nil {
		return nil
	}
	if err := m.WriteFile(path); err != nil {
		return err
	}
	r.Log.Info("manifest written", "path", path)
	return nil
}
