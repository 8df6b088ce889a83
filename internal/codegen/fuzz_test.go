package codegen

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mips/internal/ccarch"
	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/lang"
	"mips/internal/reorg"
	"mips/internal/sim"
)

// progGen emits random but well-formed, terminating Pasqual programs:
// the property harness for the whole tool chain. Loops are bounded by
// construction, divisors are always nonzero, and array indexes are
// reduced into range, so every generated program has defined behavior.
type progGen struct {
	r     *rand.Rand
	b     strings.Builder
	depth int
	loops int // nesting level: each while gets its own counter i<n>
}

func (g *progGen) pick(n int) int { return g.r.Intn(n) }

// intExpr emits an integer expression.
func (g *progGen) intExpr(depth int) string {
	if depth <= 0 {
		switch g.pick(8) {
		case 0:
			return fmt.Sprint(g.r.Intn(16)) // 4-bit band
		case 1:
			return fmt.Sprint(16 + g.r.Intn(240)) // 8-bit band
		case 2:
			return fmt.Sprint(256 + g.r.Intn(100000)) // long immediates
		case 3:
			// Parenthesized: Pascal allows a sign only at the head of a
			// simple expression.
			return fmt.Sprintf("(-%d)", g.r.Intn(300)) // reverse-operator band
		case 4, 5:
			return string(rune('a' + g.pick(4))) // a..d
		case 6:
			return fmt.Sprintf("arr[%d]", g.pick(8))
		default:
			return fmt.Sprintf("i%d", g.pick(3)) // some loop counter
		}
	}
	l := g.intExpr(depth - 1)
	r := g.intExpr(depth - 1)
	switch g.pick(6) {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, r)
	case 1:
		return fmt.Sprintf("(%s - %s)", l, r)
	case 2:
		return fmt.Sprintf("(%s * %s)", l, r)
	case 3:
		// Divisor forced into 2..18.
		return fmt.Sprintf("(%s div ((%s) mod 9 + 10))", l, r)
	case 4:
		return fmt.Sprintf("(%s mod ((%s) mod 9 + 10))", l, r)
	default:
		return fmt.Sprintf("(-%s)", l)
	}
}

// boolExpr emits a boolean expression.
func (g *progGen) boolExpr(depth int) string {
	if depth <= 0 {
		rel := []string{"=", "<>", "<", "<=", ">", ">="}[g.pick(6)]
		return fmt.Sprintf("(%s %s %s)", g.intExpr(1), rel, g.intExpr(1))
	}
	l := g.boolExpr(depth - 1)
	r := g.boolExpr(depth - 1)
	switch g.pick(3) {
	case 0:
		return fmt.Sprintf("(%s and %s)", l, r)
	case 1:
		return fmt.Sprintf("(%s or %s)", l, r)
	default:
		return fmt.Sprintf("(not %s)", l)
	}
}

// index emits an always-in-range array index expression.
func (g *progGen) index() string {
	return fmt.Sprintf("(((%s) mod 8 + 8) mod 8)", g.intExpr(1))
}

func (g *progGen) stmt(depth int) {
	ind := strings.Repeat("  ", g.depth+1)
	switch g.pick(7) {
	case 0, 1:
		v := string(rune('a' + g.pick(4)))
		fmt.Fprintf(&g.b, "%s%s := %s;\n", ind, v, g.intExpr(2))
	case 2:
		fmt.Fprintf(&g.b, "%sarr[%s] := %s;\n", ind, g.index(), g.intExpr(2))
	case 3:
		fmt.Fprintf(&g.b, "%sf := %s;\n", ind, g.boolExpr(2))
	case 4:
		if depth <= 0 {
			fmt.Fprintf(&g.b, "%swriteint(%s);\n", ind, g.intExpr(1))
			return
		}
		fmt.Fprintf(&g.b, "%sif %s then begin\n", ind, g.boolExpr(1))
		g.depth++
		g.stmts(depth-1, 1+g.pick(3))
		g.depth--
		if g.pick(2) == 0 {
			fmt.Fprintf(&g.b, "%send else begin\n", ind)
			g.depth++
			g.stmts(depth-1, 1+g.pick(2))
			g.depth--
		}
		fmt.Fprintf(&g.b, "%send;\n", ind)
	case 5:
		if depth <= 0 {
			fmt.Fprintf(&g.b, "%swriteint(%s);\n", ind, g.intExpr(1))
			return
		}
		// A bounded counting loop with its own counter: always
		// terminates even when loops nest.
		if g.loops >= 3 {
			fmt.Fprintf(&g.b, "%swriteint(%s);\n", ind, g.intExpr(1))
			return
		}
		v := fmt.Sprintf("i%d", g.loops)
		n := 1 + g.pick(6)
		fmt.Fprintf(&g.b, "%s%s := 0;\n", ind, v)
		fmt.Fprintf(&g.b, "%swhile %s < %d do begin\n", ind, v, n)
		g.depth++
		g.loops++
		g.stmts(depth-1, 1+g.pick(2))
		g.loops--
		fmt.Fprintf(&g.b, "%s  %s := %s + 1;\n", ind, v, v)
		g.depth--
		fmt.Fprintf(&g.b, "%send;\n", ind)
	default:
		fmt.Fprintf(&g.b, "%swriteint(%s);\n", ind, g.intExpr(2))
	}
}

func (g *progGen) stmts(depth, n int) {
	for k := 0; k < n; k++ {
		g.stmt(depth)
	}
}

// generate produces one random program.
func generate(seed int64) string {
	g := &progGen{r: rand.New(rand.NewSource(seed))}
	g.b.WriteString("program fuzz;\nvar a, b, c, d, i, i0, i1, i2: integer;\n")
	g.b.WriteString("var arr: array[0..7] of integer;\nvar f: boolean;\nbegin\n")
	g.b.WriteString("  a := 3; b := 7; c := 11; d := 1;\n")
	g.stmts(2, 6+g.pick(6))
	// Make all state observable at the end.
	g.b.WriteString("  writeint(a); writeint(b); writeint(c); writeint(d);\n")
	g.b.WriteString("  if f then writeint(1) else writeint(0);\n")
	g.b.WriteString("  i := 0;\n  while i < 8 do begin writeint(arr[i]); i := i + 1 end\nend.\n")
	return g.b.String()
}

// TestFuzzDifferential runs generated programs through every execution
// path and demands identical output: reference interpreter, MIPS under
// four reorganizer stages (with the hazard auditor armed), the
// hardware-interlock counterfactual, and the CC machine under three
// policy/strategy pairings.
func TestFuzzDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		src := generate(seed)
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		want, err := (&lang.Interp{Fuel: 100_000_000}).Run(prog)
		if err != nil {
			t.Fatalf("seed %d: interp: %v\n%s", seed, err, src)
		}

		stages := map[string]reorg.Options{
			"none":  {},
			"reorg": {Reorganize: true},
			"full":  reorg.All(),
		}
		for name, ropt := range stages {
			im, _, err := CompileMIPS(src, MIPSOptions{}, ropt)
			if err != nil {
				t.Fatalf("seed %d/%s: compile: %v\n%s", seed, name, err, src)
			}
			res, err := RunMIPS(im, 200_000_000)
			if err != nil {
				t.Fatalf("seed %d/%s: run: %v\n%s", seed, name, err, src)
			}
			if len(res.Hazards) > 0 {
				t.Fatalf("seed %d/%s: hazard %v\n%s", seed, name, res.Hazards[0], src)
			}
			if res.Output != want {
				t.Fatalf("seed %d/%s: output mismatch\n got %q\nwant %q\n%s",
					seed, name, res.Output, want, src)
			}
		}

		// Hardware-interlock counterfactual with interlock-assuming code.
		hwOpt := reorg.All()
		hwOpt.AssumeInterlocks = true
		im, _, err := CompileMIPS(src, MIPSOptions{}, hwOpt)
		if err != nil {
			t.Fatalf("seed %d/hw: compile: %v", seed, err)
		}
		res, err := RunMIPSOn(im, 200_000_000, true)
		if err != nil {
			t.Fatalf("seed %d/hw: run: %v\n%s", seed, err, src)
		}
		if res.Output != want {
			t.Fatalf("seed %d/hw: output mismatch\n got %q\nwant %q\n%s", seed, res.Output, want, src)
		}

		ccCombos := []struct {
			pol   ccarch.Policy
			strat BoolStrategy
		}{
			{ccarch.PolicyVAX, BoolEarlyOut},
			{ccarch.Policy360, BoolFullEval},
			{ccarch.PolicyM68000, BoolCondSet},
		}
		for _, cc := range ccCombos {
			ccres, err := GenCC(prog, CCOptions{Policy: cc.pol, Strategy: cc.strat, Eliminate: true})
			if err != nil {
				t.Fatalf("seed %d/%s: gen: %v", seed, cc.pol.Name, err)
			}
			out, _, err := RunCC(ccres, cc.pol, 200_000_000)
			if err != nil {
				t.Fatalf("seed %d/%s: run: %v\n%s", seed, cc.pol.Name, err, src)
			}
			if out != want {
				t.Fatalf("seed %d/%s/%s: output mismatch\n got %q\nwant %q\n%s",
					seed, cc.pol.Name, cc.strat, out, want, src)
			}
		}
	}
}

// rewriteWord replaces an instruction word with a semantically identical
// copy built from fresh pieces. The new word compares unequal to the old
// one (isa.Instr is two piece pointers), exactly what a store into
// instruction memory looks like to a cached translation — which must
// re-decode the word instead of replaying the stale record.
func rewriteWord(in isa.Instr) isa.Instr {
	var out isa.Instr
	if in.ALU != nil {
		p := *in.ALU
		out.ALU = &p
	}
	if in.Mem != nil {
		p := *in.Mem
		out.Mem = &p
	}
	return out
}

// TestFuzzBlocksSelfModify is the translation tiers' self-modification
// property test, run on every caching engine (traces, blocks, fast
// path). A step hook would force the exact engine, so the mutation
// schedule rides the exception hook instead — it fires on every monitor
// trap (writeint), which all engines deliver at identical points. Each
// mutation follows the harness self-modification contract: rewrite the
// IMem word (what the CPU executes and validates) AND touch the
// physical word (what fires the write barrier). Chained block entries
// and compiled traces skip per-entry revalidation by design, so an
// engine that misses a barrier invalidation replays a stale
// translation and diverges — on the traces engine the mutation lands
// in code the trace tier has compiled, exercising the
// store-into-own-trace invalidation path.
func TestFuzzBlocksSelfModify(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		src := generate(seed)
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		want, err := (&lang.Interp{Fuel: 100_000_000}).Run(prog)
		if err != nil {
			t.Fatalf("seed %d: interp: %v\n%s", seed, err, src)
		}
		im, _, err := CompileMIPS(src, MIPSOptions{}, reorg.All())
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}

		run := func(engine sim.Engine) RunResult {
			var excs uint64
			res, err := RunMIPSWith(im, 200_000_000, RunOptions{
				Engine: engine,
				Attach: func(c *cpu.CPU) {
					c.SetExcHook(func(pc uint32, primary, secondary isa.Cause, trapCode uint16) {
						excs++
						if excs%2 != 0 {
							return
						}
						phys := c.Bus.MMU.Phys
						for off := uint32(0); off < 6; off++ {
							a := pc + off
							if a < c.IMem.Len() {
								c.IMem.Set(a, rewriteWord(c.IMem.At(a)))
								// Barrier-only touch: same value back, so
								// data memory is unchanged but every block
								// and trace caching this word is dropped.
								phys.Poke(a, phys.Peek(a))
							}
						}
					})
				},
			})
			if err != nil {
				t.Fatalf("seed %d (%v): run: %v\n%s", seed, engine, err, src)
			}
			return res
		}
		trc := run(sim.Traces)
		blk := run(sim.Blocks)
		fast := run(sim.FastPath)
		if trc.Output != want {
			t.Fatalf("seed %d: trace tier diverged under self-modification\n got %q\nwant %q\n%s",
				seed, trc.Output, want, src)
		}
		if blk.Output != want {
			t.Fatalf("seed %d: block engine diverged under self-modification\n got %q\nwant %q\n%s",
				seed, blk.Output, want, src)
		}
		if fast.Output != want {
			t.Fatalf("seed %d: fast path diverged under self-modification\n got %q\nwant %q\n%s",
				seed, fast.Output, want, src)
		}
		if blk.Stats != fast.Stats {
			t.Fatalf("seed %d: stats diverge under self-modification\n blocks %+v\n   fast %+v\n%s",
				seed, blk.Stats, fast.Stats, src)
		}
		if trc.Stats != blk.Stats {
			t.Fatalf("seed %d: stats diverge under self-modification\n traces %+v\n blocks %+v\n%s",
				seed, trc.Stats, blk.Stats, src)
		}
	}
}

// TestFuzzSelfModifyDifferential runs generated programs while a step
// hook keeps storing into instruction memory — rewriting words in a
// deterministic pattern — on both execution engines. The rewrites are
// semantic no-ops, so the reference interpreter is unaffected by
// construction; a translation cache that misses an invalidation
// executes a stale record and diverges. Both paths must produce the interpreter's
// output and identical statistics.
func TestFuzzSelfModifyDifferential(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		src := generate(seed)
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		want, err := (&lang.Interp{Fuel: 100_000_000}).Run(prog)
		if err != nil {
			t.Fatalf("seed %d: interp: %v\n%s", seed, err, src)
		}
		im, _, err := CompileMIPS(src, MIPSOptions{}, reorg.All())
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}

		// The mutation schedule is a pure function of the step count, so
		// both engines see the identical store sequence: every few steps,
		// rewrite a window of words around the current PC — including the
		// word about to execute.
		run := func(engine sim.Engine) RunResult {
			var steps uint64
			res, err := RunMIPSWith(im, 200_000_000, RunOptions{
				Engine: engine,
				Attach: func(c *cpu.CPU) {
					c.SetStepHook(func(pc uint32, in isa.Instr) {
						steps++
						if steps%3 != 0 {
							return
						}
						for off := uint32(0); off < 4; off++ {
							a := pc + off
							if a < c.IMem.Len() {
								c.IMem.Set(a, rewriteWord(c.IMem.At(a)))
							}
						}
					})
				},
			})
			if err != nil {
				t.Fatalf("seed %d (%s): run: %v\n%s", seed, engine, err, src)
			}
			return res
		}
		fast := run(sim.FastPath)
		ref := run(sim.Reference)
		if fast.Output != want {
			t.Fatalf("seed %d: fast path diverged under self-modification\n got %q\nwant %q\n%s",
				seed, fast.Output, want, src)
		}
		if ref.Output != want {
			t.Fatalf("seed %d: reference path diverged under self-modification\n got %q\nwant %q\n%s",
				seed, ref.Output, want, src)
		}
		if fast.Stats != ref.Stats {
			t.Fatalf("seed %d: stats diverge under self-modification\n fast %+v\n  ref %+v\n%s",
				seed, fast.Stats, ref.Stats, src)
		}
	}
}
