package analysis_test

import (
	"strings"
	"testing"

	"teapot/internal/analysis"
	"teapot/internal/protocols"
	"teapot/internal/source"
)

// TestDupIdempotenceStacheFT: the advisory fires exactly on the documented
// dup=2 edge of the fault-tolerant protocol — handlers of droppable (and
// therefore retransmittable, and therefore duplicable) messages that
// resume a continuation without a duplicate-delivery guard. The home-side
// acknowledgement path is guarded by TakeAwaiting and must stay silent.
func TestDupIdempotenceStacheFT(t *testing.T) {
	rep := analysis.Analyze(protocols.MustCompile("stache-ft", true).Protocol)
	ds := rep.ByCheck("dup-idempotence")
	var handlers []string
	for _, d := range ds {
		if d.Severity != source.SevInfo {
			t.Errorf("severity = %v, want info (advisory: dup budgets beyond 1 are a known edge)", d.Severity)
		}
		for _, h := range []string{
			"Cache_Inv_To_RO.GET_RO_RESP",
			"Cache_Inv_To_RW.GET_RW_RESP",
			"Cache_RO_To_RW.UPGRADE_ACK",
			"Cache_RO_To_RW.GET_RW_RESP",
			"Home_AwaitPutData.PUT_DATA_RESP",
		} {
			if strings.Contains(d.Msg, h) {
				handlers = append(handlers, h)
			}
		}
	}
	if len(ds) != 5 || len(handlers) != 5 {
		t.Errorf("findings = %d (matched %v), want the 5 unguarded resume paths:\n%s",
			len(ds), handlers, rep)
	}
	// The invalidation-ack handler counts acks through TakeAwaiting — a
	// guarded, support-mediated update — and must not be flagged.
	for _, d := range ds {
		if strings.Contains(d.Msg, "INVAL_ACK") {
			t.Errorf("guarded handler flagged: %s", d.Msg)
		}
	}
}

// TestDupIdempotenceSilentWithoutTimeout: protocols with no TIMEOUT never
// see retransmission-induced duplicates on a perfect network, so the lint
// stays quiet on the base protocol even though its handlers resume
// continuations unguarded.
func TestDupIdempotenceSilentWithoutTimeout(t *testing.T) {
	rep := analysis.Analyze(protocols.MustCompile("stache", true).Protocol)
	if ds := rep.ByCheck("dup-idempotence"); len(ds) != 0 {
		t.Errorf("base stache flagged (no TIMEOUT declared): %v", ds)
	}
}
