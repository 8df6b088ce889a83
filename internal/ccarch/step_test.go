package ccarch_test

import (
	"errors"
	"fmt"
	"testing"

	"mips/internal/ccarch"
	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/lang"
)

// loadCC compiles eight queens (the boolean cross-product program) for
// one policy and strategy and returns two machines holding its data.
func loadCC(t *testing.T, pol ccarch.Policy, strat codegen.BoolStrategy) (*ccarch.Program, *ccarch.Machine, *ccarch.Machine) {
	t.Helper()
	p, err := corpus.Get("queens")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(p.Source)
	if err != nil {
		t.Fatal(err)
	}
	res, err := codegen.GenCC(prog, codegen.CCOptions{Policy: pol, Strategy: strat, Eliminate: true})
	if err != nil {
		t.Fatal(err)
	}
	newMachine := func() *ccarch.Machine {
		m := ccarch.NewMachine(pol, 1<<16)
		for addr, val := range res.Init {
			m.Mem[addr] = val
		}
		return m
	}
	return res.Prog, newMachine(), newMachine()
}

// stepTo steps m at most limit times, stopping at the first error.
func stepTo(m *ccarch.Machine, p *ccarch.Program, limit int) error {
	for i := 0; i < limit; i++ {
		if err := m.Step(p); err != nil {
			return err
		}
	}
	return nil
}

// sameMachine reports the first architectural difference between a and b.
func sameMachine(a, b *ccarch.Machine) error {
	switch {
	case a.Stats != b.Stats:
		return fmt.Errorf("stats %+v vs %+v", a.Stats, b.Stats)
	case a.Out.String() != b.Out.String():
		return fmt.Errorf("output %q vs %q", a.Out.String(), b.Out.String())
	case a.Regs != b.Regs:
		return fmt.Errorf("registers %v vs %v", a.Regs, b.Regs)
	case a.Flags != b.Flags:
		return fmt.Errorf("flags %+v vs %+v", a.Flags, b.Flags)
	}
	return nil
}

// TestRunMatchesStepLoop: Run decides once per run which opcodes set
// the condition codes, Step once per instruction. For every policy and
// strategy pairing of the cross-product program the two must agree: on
// a run to halt, on a run cut by the step limit, and on the error of a
// compare executed by a machine without condition codes.
func TestRunMatchesStepLoop(t *testing.T) {
	strategies := []codegen.BoolStrategy{codegen.BoolFullEval, codegen.BoolEarlyOut, codegen.BoolCondSet}
	for _, pol := range ccarch.Policies() {
		if !pol.HasCC {
			continue
		}
		for _, strat := range strategies {
			if strat == codegen.BoolCondSet && !pol.CondSet {
				continue
			}
			name := pol.Name + "/" + strat.String()

			p, run, step := loadCC(t, pol, strat)
			if err := run.Run(p, 200_000_000); err != nil {
				t.Fatalf("%s: run: %v", name, err)
			}
			if err := stepTo(step, p, 200_000_000); !errors.Is(err, ccarch.ErrHalted) {
				t.Fatalf("%s: step loop ended with %v, want halt", name, err)
			}
			if err := sameMachine(run, step); err != nil {
				t.Errorf("%s: run to halt: %v", name, err)
			}

			const limit = 5000
			p, run, step = loadCC(t, pol, strat)
			runErr := run.Run(p, limit)
			if err := stepTo(step, p, limit); err != nil {
				t.Fatalf("%s: step loop: %v", name, err)
			}
			want := fmt.Sprintf("ccarch: step limit exceeded at pc=%d", step.PC())
			if runErr == nil || runErr.Error() != want {
				t.Errorf("%s: step-limited run error %v, want %q", name, runErr, want)
			}
			if err := sameMachine(run, step); err != nil {
				t.Errorf("%s: run to step limit: %v", name, err)
			}

			// The same code on a machine without condition codes fails
			// at its first compare, identically either way.
			p, run, step = loadCC(t, pol, strat)
			run.Policy, step.Policy = ccarch.PolicyNoCC, ccarch.PolicyNoCC
			runErr = run.Run(p, 200_000_000)
			stepErr := stepTo(step, p, 200_000_000)
			if runErr == nil || stepErr == nil || runErr.Error() != stepErr.Error() {
				t.Errorf("%s on %s: run error %v, step error %v", name, ccarch.PolicyNoCC.Name, runErr, stepErr)
			}
			if err := sameMachine(run, step); err != nil {
				t.Errorf("%s on %s: %v", name, ccarch.PolicyNoCC.Name, err)
			}
		}
	}
}
