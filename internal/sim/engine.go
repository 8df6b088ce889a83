// Package sim is the public facade over the simulator: one way to
// construct a machine (bare or full-kernel), pick its execution engine,
// attach observability, drive it in step quanta, and checkpoint it to a
// deterministic, versioned snapshot that restores into an observably
// identical machine. Packages codegen and tables, and every command,
// build their machines through it; the layers underneath (cpu, mem,
// kernel) stay mechanism, not policy.
package sim

import (
	"fmt"

	"mips/internal/cpu"
)

// Engine selects the execution engine. The engines are observably
// identical — same outputs, same Stats, same observer event streams —
// and differ only in how fast the simulation itself runs; the
// differential tests in codegen and sim pin the equivalence.
type Engine int

const (
	// Default defers to the process-wide default engine (Traces unless
	// SetDefault changed it). It is the zero value, so zero-configured
	// machines follow the process default.
	Default Engine = iota
	// Reference is the reference interpreter: pieces re-read and
	// re-decoded every cycle. The baseline the others are tested against.
	Reference
	// FastPath steps one instruction at a time through the same
	// reference interpreter, with no translation tier; it differs from
	// Reference only in the tier its instructions count as (cpu.TierFast).
	FastPath
	// Blocks is the superblock translation engine layered on
	// per-instruction stepping: straight-line runs execute as cached,
	// chained blocks, each word on the reference interpreter from the
	// block's copy of it.
	Blocks
	// Traces is the trace JIT tier layered on the superblock engine:
	// profile-guided multi-block traces, fused across taken branches,
	// compiled to flat arrays of op records. Falls back tier by tier
	// (trace -> superblock -> per-instruction stepping) on any guard
	// failure, fault, or configuration the traces cannot prove quiet.
	Traces
)

func (e Engine) String() string {
	switch e {
	case Reference:
		return "reference"
	case FastPath:
		return "fast"
	case Blocks:
		return "blocks"
	case Traces:
		return "traces"
	default:
		return "default"
	}
}

// ParseEngine converts a CLI/API engine name. It accepts the String
// forms ("reference", "fast", "blocks", "traces", "default") and the
// aliases "fastpath" (FastPath) and "" (Default).
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "reference":
		return Reference, nil
	case "fast", "fastpath":
		return FastPath, nil
	case "blocks":
		return Blocks, nil
	case "traces":
		return Traces, nil
	case "", "default":
		return Default, nil
	}
	return Default, fmt.Errorf("sim: unknown engine %q (want reference, fast, blocks, or traces)", s)
}

// defaultEngine is what Default resolves to; process-wide, set once by
// the command line before machines are built.
var defaultEngine = Traces

// SetDefault sets the process-wide default engine: what Engine(0)
// resolves to. Call it from main before building machines; it is not
// synchronized against concurrent machine construction. Passing Default
// is a no-op.
func SetDefault(e Engine) {
	if e != Default {
		defaultEngine = e
	}
}

// resolve maps Default to the current process-wide default.
func (e Engine) resolve() Engine {
	if e == Default {
		return defaultEngine
	}
	return e
}

// apply configures a CPU for the engine. Reference through Traces list
// the cpu engines in their order.
func (e Engine) apply(c *cpu.CPU) { c.SetEngine(cpu.Engine(e.resolve() - Reference)) }
