package fuzz

import (
	"teapot/internal/netmodel"
	"teapot/internal/tempest"
)

// deviationRate is the per-choice deviation probability: how often the
// recorder strays from the benign option. High enough that a handful of
// schedules exercises faults and reorderings, low enough that most of a
// run stays on the fast path (heavily faulted runs mostly die of budget
// exhaustion, not interesting interleavings).
const deviationRate = 0.25

// Recorder is the fuzzing chooser: it draws each decision from a seeded
// RNG and records every non-benign pick. The same seed always produces
// the same decision sequence over the same run.
type Recorder struct {
	rng       netmodel.Rand
	step      uint64
	decisions []Decision
}

// NewRecorder builds a recorder.
func NewRecorder(seed uint64) *Recorder { return &Recorder{rng: netmodel.Rand(seed)} }

// Choose implements tempest.Chooser.
func (r *Recorder) Choose(kind tempest.ChoiceKind, n int) int {
	step := r.step
	r.step++
	pick := 0
	if r.rng.Float() < deviationRate {
		pick = 1 + r.rng.Intn(n-1)
	}
	if pick != 0 {
		r.decisions = append(r.decisions, Decision{Step: step, Kind: kindName(kind), Pick: pick})
	}
	return pick
}

// Steps returns how many choice points the run exposed.
func (r *Recorder) Steps() uint64 { return r.step }

// Decisions returns the recorded non-benign picks, in step order.
func (r *Recorder) Decisions() []Decision { return r.decisions }

// Replayer plays a schedule's decisions back: at each recorded step the
// recorded pick, benign option 0 everywhere else. Out-of-range picks (a
// decision recorded under a wider option set — possible for shrunk
// subsets whose early decisions changed the run) fall back to 0 rather
// than failing, so every subset of a schedule is itself a valid schedule;
// delta debugging relies on that totality.
type Replayer struct {
	decisions []Decision
	next      int
	step      uint64
	applied   int
}

// NewReplayer builds a replayer over the schedule's decisions (which Save
// and the recorder keep in ascending step order).
func NewReplayer(s *Schedule) *Replayer {
	return &Replayer{decisions: s.Decisions}
}

// Choose implements tempest.Chooser.
func (r *Replayer) Choose(kind tempest.ChoiceKind, n int) int {
	step := r.step
	r.step++
	for r.next < len(r.decisions) && r.decisions[r.next].Step < step {
		r.next++
	}
	if r.next >= len(r.decisions) {
		return 0
	}
	d := r.decisions[r.next]
	if d.Step != step || d.Kind != kindName(kind) || d.Pick < 0 || d.Pick >= n {
		return 0
	}
	r.next++
	r.applied++
	return d.Pick
}

// Steps returns how many choice points the replayed run exposed.
func (r *Replayer) Steps() uint64 { return r.step }

// Applied returns how many recorded decisions actually took effect.
func (r *Replayer) Applied() int { return r.applied }
