package bufwrite_test

import (
	"strings"
	"testing"

	"teapot/internal/protocols"
	"teapot/internal/protocols/bufwrite"
)

func TestCompiles(t *testing.T) {
	for _, opt := range []bool{false, true} {
		a := protocols.MustCompile("bufwrite", opt)
		// Stache's 16 states + the 4 buffered-write states, minus
		// Cache_RO_To_RW (unreachable once upgrades are buffered).
		if got := len(a.Sema.States); got != 19 {
			t.Errorf("states = %d, want 19", got)
		}
		if a.Sema.MessageByName("SYNC") == nil {
			t.Error("SYNC message missing")
		}
	}
}

func TestSourceComposition(t *testing.T) {
	// The blocking handlers must be gone and the buffering ones present.
	if strings.Contains(bufwrite.Source, "Suspend(L, Cache_Inv_To_RW{L})") {
		t.Error("blocking WR_FAULT handler still present")
	}
	for _, want := range []string{
		"Cache_Buf_Fill", "Cache_Buf_Upgrade", "Cache_SyncFill",
		"Cache_SyncUpgrade", "Blk_Buffered", "buffered := buffered + 1",
	} {
		if !strings.Contains(bufwrite.Source, want) {
			t.Errorf("source missing %q", want)
		}
	}
	// SYNC handled in all six stable states.
	if got := strings.Count(bufwrite.Source, "message SYNC"); got < 7 {
		t.Errorf("SYNC handlers = %d, want >= 7", got)
	}
}
