// Streaming: run the whole pipeline over a capture that never fits in
// memory.
//
// The pipeline's one driver, core.Subsetter.RunSource, drains a
// frame-stream trace one characterization interval at a time: it
// clusters, prices and evaluates each frame, finds the phases and keeps
// the representatives as it goes, so memory stays bounded no matter how
// long the capture runs. The example writes a stream to a temp file,
// runs a full evaluated and validated pass straight off the file, and
// checks the result against the same pass over the workload in memory.
//
//	go run ./examples/streaming
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	profile := synth.Bioshock1Profile()
	profile.Frames = 96
	workload, err := synth.Generate(profile, 5)
	if err != nil {
		log.Fatal(err)
	}

	// Write the capture in stream format (in production this is the
	// trace replayer's output, written as frames are captured).
	dir, err := os.MkdirTemp("", "subset3d-stream")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "capture.stream")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.EncodeStream(f, workload); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	// One pass straight off the file: clustering evaluation, phases,
	// subset and validation sweep.
	in, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer in.Close()
	src, err := trace.NewStreamReader(in, trace.ReaderOptions{})
	if err != nil {
		log.Fatal(err)
	}
	s, err := core.New(core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	streamed, err := s.RunSource(context.Background(), src)
	if err != nil {
		log.Fatal(err)
	}
	var out bytes.Buffer
	streamed.Render(&out)
	fmt.Print(out.String())

	// Verify against the same pass over the workload in memory
	// (possible here because the demo workload does fit).
	inMemory, err := s.Run(workload)
	if err != nil {
		log.Fatal(err)
	}
	var want bytes.Buffer
	inMemory.Render(&want)
	fmt.Println("same report as the in-memory pass:", bytes.Equal(out.Bytes(), want.Bytes()))
}
