package tables

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mips/internal/analysis"
	"mips/internal/ccarch"
	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/lang"
	"mips/internal/reorg"
	"mips/internal/sim"
)

// A pass is one regeneration of the evaluation. Several experiments
// measure the same artifact — Tables 7, 8, 10 and the byte-overhead
// sweep all need the corpus reference mixes; the free-cycle table, the
// interlock ablation and the delay-scheme ablation all compile the
// corpus with the full reorganizer — so the pass computes each artifact
// once, on first request, and hands every later asker the same value:
//
//   - the checked AST per source program;
//   - the corpus reference mix per allocation mode;
//   - the image and reorganizer statistics per (source, code-generator
//     options, reorganizer options);
//   - the bare-machine result per (compile key, step cap, interlocked).
//
// Every artifact is deterministic, so sharing changes no output byte,
// and errors are kept with the value they replace. Shared values are
// read-only: an AST is complete when its memo publishes it, and the
// code generators, the analyses and the interpreter only read it;
// loading an image copies its words, and the experiments only read
// results, statistics and mixes. A pass lives for one RunAll
// (or one Experiment.Run) and is then dropped; nothing outlives it.
type pass struct {
	// engine runs every machine the experiments build.
	engine sim.Engine
	// attach, if non-nil, sees every CPU the pass builds (tests).
	attach func(*cpu.CPU)

	mu      sync.Mutex
	asts    map[string]*memo[*lang.Program]
	mixes   map[lang.AllocMode]*memo[analysis.RefMix]
	images  map[compileKey]*memo[compiledImage]
	results map[runKey]*memo[codegen.RunResult]
	// ccMems are CC machine memories free for the next runCC.
	ccMems [][]uint32

	// Work actually done: parses, program interpretations, compiles
	// and bare runs. A shared artifact adds nothing.
	parses, interpretations, compiles, runs atomic.Int64
}

// compileKey names one compile of a source program.
type compileKey struct {
	src  string
	mopt codegen.MIPSOptions
	ropt reorg.Options
}

// runKey names one bare-machine run of a compiled program.
type runKey struct {
	compileKey
	maxSteps    uint64
	interlocked bool
}

type compiledImage struct {
	im *isa.Image
	st reorg.Stats
}

// memo is one artifact: computed by the first asker, waited for by the
// rest.
type memo[V any] struct {
	once sync.Once
	val  V
	err  error
}

func newPass(engine sim.Engine) *pass {
	return &pass{
		engine:  engine,
		asts:    map[string]*memo[*lang.Program]{},
		mixes:   map[lang.AllocMode]*memo[analysis.RefMix]{},
		images:  map[compileKey]*memo[compiledImage]{},
		results: map[runKey]*memo[codegen.RunResult]{},
	}
}

// share returns m[k]'s value, computing it with fn if no asker has.
// The mutex guards only the map; fn runs outside it, so artifacts with
// different keys are computed concurrently.
func share[K comparable, V any](mu *sync.Mutex, m map[K]*memo[V], k K, fn func() (V, error)) (V, error) {
	mu.Lock()
	e, ok := m[k]
	if !ok {
		e = &memo[V]{}
		m[k] = e
	}
	mu.Unlock()
	e.once.Do(func() { e.val, e.err = fn() })
	return e.val, e.err
}

// corpusRefs runs the whole corpus under the interpreter and merges the
// reference mixes.
func (p *pass) corpusRefs(mode lang.AllocMode) (analysis.RefMix, error) {
	return share(&p.mu, p.mixes, mode, func() (analysis.RefMix, error) {
		progs, err := p.parseAll()
		if err != nil {
			return analysis.RefMix{}, err
		}
		var mix analysis.RefMix
		for _, prog := range progs {
			p.interpretations.Add(1)
			m, err := analysis.References(prog, mode)
			if err != nil {
				return mix, err
			}
			mix.Add(m)
		}
		return mix, nil
	})
}

// parse is lang.Parse, shared across the pass.
func (p *pass) parse(src string) (*lang.Program, error) {
	return share(&p.mu, p.asts, src, func() (*lang.Program, error) {
		p.parses.Add(1)
		return lang.Parse(src)
	})
}

// parseAll parses the whole corpus, in corpus order.
func (p *pass) parseAll() ([]*lang.Program, error) {
	var out []*lang.Program
	for _, c := range corpus.All() {
		prog, err := p.parse(c.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		out = append(out, prog)
	}
	return out, nil
}

// compile is codegen.CompileMIPS on the pass's AST, shared across the
// pass.
func (p *pass) compile(src string, mopt codegen.MIPSOptions, ropt reorg.Options) (*isa.Image, reorg.Stats, error) {
	c, err := share(&p.mu, p.images, compileKey{src, mopt, ropt}, func() (compiledImage, error) {
		prog, err := p.parse(src)
		if err != nil {
			return compiledImage{}, err
		}
		p.compiles.Add(1)
		im, st, err := codegen.CompileProgram(prog, mopt, ropt)
		return compiledImage{im, st}, err
	})
	return c.im, c.st, err
}

// run compiles src and executes it on a bare machine of the pass's
// engine (with hardware interlocks if asked), shared across the pass.
func (p *pass) run(src string, mopt codegen.MIPSOptions, ropt reorg.Options, maxSteps uint64, interlocked bool) (codegen.RunResult, error) {
	k := runKey{compileKey{src, mopt, ropt}, maxSteps, interlocked}
	return share(&p.mu, p.results, k, func() (codegen.RunResult, error) {
		im, _, err := p.compile(src, mopt, ropt)
		if err != nil {
			return codegen.RunResult{}, err
		}
		p.runs.Add(1)
		return codegen.RunMIPSWith(im, maxSteps, codegen.RunOptions{
			Interlocked: interlocked, Engine: p.engine, Attach: p.attach,
		})
	})
}

// runCC is codegen.RunCC on a memory the pass reuses: a run takes a
// free one, or allocates one when every memory is in a concurrent run,
// and hands it back when done. A pass therefore allocates one CC memory
// per worker, not one per run.
func (p *pass) runCC(res codegen.CCResult, pol ccarch.Policy, maxSteps uint64) (string, ccarch.Stats, error) {
	p.mu.Lock()
	var mem []uint32
	if n := len(p.ccMems); n > 0 {
		mem, p.ccMems = p.ccMems[n-1], p.ccMems[:n-1]
	} else {
		mem = make([]uint32, codegen.CCMemWords)
	}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.ccMems = append(p.ccMems, mem)
		p.mu.Unlock()
	}()
	return codegen.RunCCIn(mem, res, pol, maxSteps)
}

// simOptions carries the pass's engine (and test hook) into a machine
// an experiment builds itself.
func (p *pass) simOptions(opts ...sim.Option) []sim.Option {
	opts = append(opts, sim.WithEngine(p.engine))
	if p.attach != nil {
		opts = append(opts, sim.WithAttach(p.attach))
	}
	return opts
}
