// Package netmodel is the network fault model shared by every Teapot
// backend. One Model value describes what the network may do to in-flight
// messages — reorder, delay, drop, duplicate — and both execution
// substrates consume it:
//
//   - the model checker (internal/mc) explores faults *nondeterministically*
//     under bounded budgets (MaxDrops/MaxDups per run), keeping the state
//     space finite and the parallel-BFS determinism contract intact;
//   - the simulator (internal/tempest, via internal/sim) injects faults
//     *stochastically* from a seeded deterministic RNG (Injector), recording
//     each as an obs event so Chrome traces show the lost arrows.
//
// The textual form accepted by Parse is the -net flag syntax used by every
// CLI: "drop=1,dup=1,reorder=2".
package netmodel

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Keys lists the -net keys: Parse, String and Validate read the fields in
// this order, and the flag's help and Parse's errors name them from here.
const Keys = "reorder, delay, drop, dup"

var keys = strings.Split(Keys, ", ")

// Model is a network fault model. The zero value is a perfect in-order
// network (the seed repo's default).
type Model struct {
	// Reorder bounds network reordering: a delivery may overtake at most
	// Reorder earlier messages in its channel (0 = in-order, the paper
	// verified with "1 reordering max").
	Reorder int

	// Delay models messages held back by the fabric. The checker treats it
	// as extra reorder credit (a delayed message is overtaken by up to
	// Delay additional messages); the simulator stretches an affected
	// message's transit time by Delay extra network latencies.
	Delay int

	// MaxDrops bounds how many in-flight messages may be lost per run.
	MaxDrops int

	// MaxDups bounds how many in-flight messages may be duplicated per run.
	MaxDups int
}

// DefaultRate is the per-message fault probability of stochastic injection
// (the simulator only; the checker branches on every opportunity).
const DefaultRate = 0.25

// Active reports whether the model injects any faults (reordering alone is
// not a fault: it needs no budget and no recovery).
func (m Model) Active() bool {
	return m.MaxDrops > 0 || m.MaxDups > 0 || m.Delay > 0
}

// EffectiveReorder is the reorder credit the checker grants a delivery:
// the configured reorder bound plus the delay credit.
func (m Model) EffectiveReorder() int { return m.Reorder + m.Delay }

// fields returns the field each of Keys sets, in the same order.
func (m *Model) fields() [4]*int { return [...]*int{&m.Reorder, &m.Delay, &m.MaxDrops, &m.MaxDups} }

// Validate rejects malformed models.
func (m Model) Validate() error {
	for i, v := range m.fields() {
		if *v < 0 {
			return fmt.Errorf("netmodel: %s must be >= 0 (got %d)", keys[i], *v)
		}
	}
	return nil
}

// Parse reads the -net flag syntax: a comma-separated list of key=value
// pairs, each key (one of Keys) at most once, each value a decimal integer.
// A value is read whole, so "drop=0x10" is refused, not read as far as it
// parses. The empty string is the zero Model.
func Parse(s string) (Model, error) {
	var m Model
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return m, nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("netmodel: %q is not key=value (want e.g. drop=1,dup=1,reorder=2)", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if seen[key] {
			return m, fmt.Errorf("netmodel: %s given twice", key)
		}
		seen[key] = true
		i := slices.Index(keys, key)
		if i < 0 {
			return m, fmt.Errorf("netmodel: unknown key %q (known: %s)", key, Keys)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return m, fmt.Errorf("netmodel: bad value %q for %s", val, key)
		}
		*m.fields()[i] = n
	}
	return m, m.Validate()
}

// String renders the model in Parse's syntax (Parse(m.String()) == m).
func (m Model) String() string {
	var parts []string
	for i, v := range m.fields() {
		if *v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", keys[i], *v))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	sort.Strings(parts) // fixed rendering order independent of field order
	return strings.Join(parts, ",")
}

// Fault is one stochastic injection decision.
type Fault int

// Injection outcomes.
const (
	FaultNone Fault = iota
	FaultDrop
	FaultDup
	FaultDelay
)

func (f Fault) String() string {
	switch f {
	case FaultDrop:
		return "drop"
	case FaultDup:
		return "dup"
	case FaultDelay:
		return "delay"
	}
	return "none"
}

// Rand is splitmix64, the one seeded generator every stochastic stream in
// the repository draws from (fault injection here, the simulator's workload
// builders, the fuzzer's recorder and workloads, litmus jitter). The value
// is the whole state: Rand(seed) starts a stream, and the same seed always
// yields the same stream.
type Rand uint64

// Next returns the stream's next 64 bits.
func (r *Rand) Next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float returns the next value in [0, 1).
func (r *Rand) Float() float64 { return float64(r.Next()>>11) / (1 << 53) }

// Intn returns the next value in [0, n).
func (r *Rand) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Derive returns the seed of the i-th stream derived from master seed r, so
// one seed names a whole campaign and each of its runs.
func (r Rand) Derive(i uint64) uint64 {
	d := r ^ Rand((i+1)*0x9e3779b97f4a7c15)
	return d.Next()
}

// Injector draws per-message fault decisions from a seeded Rand, honoring
// the model's budgets: the same seed over the same send sequence always
// yields the same faults, so simulator runs stay reproducible bit-for-bit.
type Injector struct {
	m     Model
	rng   Rand
	drops int
	dups  int
}

// NewInjector builds an injector for the model. A nil return means the
// model injects nothing and the caller can skip the per-send check.
func NewInjector(m Model, seed uint64) *Injector {
	if !m.Active() {
		return nil
	}
	return &Injector{m: m, rng: Rand(seed)}
}

// Reseed restarts the injector as NewInjector(m, seed) would have built it:
// the stream from seed, both budgets unspent. A nil injector stays inert.
func (i *Injector) Reseed(seed uint64) {
	if i != nil {
		*i = Injector{m: i.m, rng: Rand(seed)}
	}
}

// Next decides the fate of the next message send. Budgeted faults (drop,
// dup) stop once spent; delay is per-message and unbudgeted.
func (i *Injector) Next() Fault {
	if i == nil {
		return FaultNone
	}
	if i.rng.Float() >= DefaultRate {
		return FaultNone
	}
	var buf [3]Fault
	opts := buf[:0]
	if i.drops < i.m.MaxDrops {
		opts = append(opts, FaultDrop)
	}
	if i.dups < i.m.MaxDups {
		opts = append(opts, FaultDup)
	}
	if i.m.Delay > 0 {
		opts = append(opts, FaultDelay)
	}
	if len(opts) == 0 {
		return FaultNone
	}
	f := opts[i.rng.Intn(len(opts))]
	switch f {
	case FaultDrop:
		i.drops++
	case FaultDup:
		i.dups++
	}
	return f
}
