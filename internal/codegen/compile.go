package codegen

import (
	"fmt"

	"mips/internal/asm"
	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/lang"
	"mips/internal/reorg"
	"mips/internal/sim"
)

// CompileMIPS runs the full tool chain: Pasqual source → naive pieces →
// reorganizer → assembler → loadable image. It returns the image and
// the reorganizer's statistics (the Table 11 quantities).
func CompileMIPS(src string, mopt MIPSOptions, ropt reorg.Options) (*isa.Image, reorg.Stats, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, reorg.Stats{}, err
	}
	return CompileProgram(prog, mopt, ropt)
}

// CompileProgram is CompileMIPS from a parsed program, which it only
// reads: one AST may feed many compiles, concurrently.
func CompileProgram(prog *lang.Program, mopt MIPSOptions, ropt reorg.Options) (*isa.Image, reorg.Stats, error) {
	unit, err := GenMIPS(prog, mopt)
	if err != nil {
		return nil, reorg.Stats{}, err
	}
	ro, st := reorg.Reorganize(unit, ropt)
	im, err := asm.Assemble(ro)
	if err != nil {
		return nil, st, fmt.Errorf("assemble: %w", err)
	}
	return im, st, nil
}

// RunResult is the outcome of executing a compiled program on the bare
// machine.
type RunResult struct {
	Output  string
	Stats   cpu.Stats
	Hazards []cpu.Hazard
}

// RunMIPS executes an image on a bare machine (no kernel): monitor
// calls are serviced by a host-side trap hook, exactly the environment
// of the paper's dynamic simulations.
func RunMIPS(im *isa.Image, maxSteps uint64) (RunResult, error) {
	return RunMIPSWith(im, maxSteps, RunOptions{})
}

// RunMIPSOn is RunMIPS with the hardware-interlock counterfactual
// selectable, for the ablation experiments.
func RunMIPSOn(im *isa.Image, maxSteps uint64, interlocked bool) (RunResult, error) {
	return RunMIPSWith(im, maxSteps, RunOptions{Interlocked: interlocked})
}

// RunOptions configures RunMIPSWith.
type RunOptions struct {
	// Interlocked enables the hardware-interlock counterfactual.
	Interlocked bool
	// Engine selects the execution engine; the zero value follows the
	// process-wide default (sim.SetDefault).
	Engine sim.Engine
	// Attach, if non-nil, is called with the constructed CPU after the
	// bare machine is assembled and before execution begins — the hook
	// point for tracers, profilers, and metrics registries.
	Attach func(c *cpu.CPU)
}

// RunMIPSWith is RunMIPS with the bare machine exposed: observers
// attach through opt.Attach instead of rebuilding the harness by hand.
// It is a thin veneer over the sim facade, kept for its compact result
// shape; new code should use sim.New directly.
func RunMIPSWith(im *isa.Image, maxSteps uint64, opt RunOptions) (RunResult, error) {
	opts := []sim.Option{sim.WithEngine(opt.Engine), sim.WithInterlocked(opt.Interlocked)}
	if opt.Attach != nil {
		opts = append(opts, sim.WithAttach(opt.Attach))
	}
	m, err := sim.New(opts...)
	if err != nil {
		return RunResult{}, err
	}
	if err := m.Load(im); err != nil {
		return RunResult{}, err
	}
	_, err = m.Run(maxSteps)
	return RunResult{Output: m.Output(), Stats: *m.Stats(), Hazards: m.Hazards()}, err
}
