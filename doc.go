// Package teapot is a Go reproduction of "Teapot: Language Support for
// Writing Memory Coherence Protocols" (Chandra, Richards & Larus,
// PLDI 1996): a domain-specific language with continuations for writing
// shared-memory coherence protocols, a compiler that turns suspending
// handlers into atomically executable fragments, dual back-ends (an
// executable protocol and a model-checking target), a Tempest-style
// simulated multiprocessor to run protocols on, and the Stache, LCM, and
// Buffered-write protocols from the paper's evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the reproduced tables and figures. The public entry
// points are internal/core.Compile, which runs the full pipeline, and
// internal/core.Vet, which runs the static protocol analyses
// (internal/analysis, also available as `teapot vet`) over a
// compiled protocol; the runnable examples live under examples/.
package teapot
