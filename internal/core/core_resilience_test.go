package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestRunContextHonorsCancellation(t *testing.T) {
	w := coreGame(t)
	s, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ctx2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel2()
	if _, err := s.RunContext(ctx2, w); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
