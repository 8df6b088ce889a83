package sim

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/mem"
	"mips/internal/trace"
)

// regResult is the register the bare machine's monitor-call ABI passes
// its argument in (matches the code generator's convention).
const regResult = isa.Reg(1)

// barePhysWords is the default bare-machine memory size: 65K words,
// enough for every corpus program with headroom.
const barePhysWords = 1 << 16

// Hooks bundles the CPU's observer callbacks for WithHooks. Nil fields
// stay uninstalled, preserving the zero-overhead contract; a Step hook
// forces the exact per-instruction engine by design.
type Hooks struct {
	Step   func(pc uint32, in isa.Instr)
	Mem    func(pc, addr uint32, store bool)
	Branch func(pc, target uint32, taken bool)
	Exc    func(pc uint32, primary, secondary isa.Cause, trapCode uint16)
	RFE    func(pc uint32)
	Stall  func(pc uint32)
}

type config struct {
	engine      Engine
	kernelCfg   *kernel.Config
	interlocked bool
	physWords   int
	spaceBits   uint8
	hooks       Hooks
	attach      []func(*cpu.CPU)
	observer    *trace.Observer
	registry    *trace.Registry
	dma         bool
}

// Option configures New (and Restore, for the options that attach
// observers or override the engine).
type Option func(*config)

// WithEngine selects the execution engine. Default (the zero Engine)
// follows the process-wide default.
func WithEngine(e Engine) Option { return func(c *config) { c.engine = e } }

// WithKernel builds the full machine — dispatch ROM, demand paging,
// devices — instead of the bare machine. Images loaded afterwards become
// kernel processes.
func WithKernel(cfg kernel.Config) Option { return func(c *config) { c.kernelCfg = &cfg } }

// WithInterlocked enables the hardware-interlock counterfactual on the
// bare machine (the ablation experiments).
func WithInterlocked(on bool) Option { return func(c *config) { c.interlocked = on } }

// WithPhysWords sets the bare machine's physical memory size in words
// (default 65536, at most mem.MaxPhysWords). Kernel machines size memory
// via kernel.Config.
func WithPhysWords(n int) Option { return func(c *config) { c.physWords = n } }

// WithSpaceBits sets the address-space size (log2 words) processes are
// loaded with on the kernel machine (default 16, the minimum).
func WithSpaceBits(b uint8) Option { return func(c *config) { c.spaceBits = b } }

// WithHooks installs CPU observer callbacks.
func WithHooks(h Hooks) Option { return func(c *config) { c.hooks = h } }

// WithAttach registers a callback invoked with the constructed CPU —
// the escape hatch for observers the typed options don't cover
// (profilers, tracers, tests). May be given more than once.
func WithAttach(fn func(*cpu.CPU)) Option {
	return func(c *config) { c.attach = append(c.attach, fn) }
}

// WithTelemetry registers the machine's counters into a metrics
// registry: cpu.* and xlate.* for bare machines, plus kernel.* (and
// dma.* when a DMA engine is attached) for kernel machines. New fails
// if the registry already holds those series.
func WithTelemetry(reg *trace.Registry) Option { return func(c *config) { c.registry = reg } }

// WithObserver attaches a trace.Observer (tracer and/or profiler).
func WithObserver(obs *trace.Observer) Option { return func(c *config) { c.observer = obs } }

// WithDMA attaches a DMA engine to the bare machine's free memory
// cycles (kernel machines manage their own devices).
func WithDMA() Option { return func(c *config) { c.dma = true } }

// Machine is a simulation behind one uniform surface: load images, run
// (wholesale or in quanta), observe, snapshot. Construct with New or
// Restore. A Machine is not safe for concurrent use; the job service
// serializes access at quantum boundaries.
type Machine struct {
	engine      Engine
	interlocked bool
	spaceBits   uint8

	cpu  *cpu.CPU
	kern *kernel.Machine // nil for the bare machine

	out      strings.Builder // bare-machine console
	hazards  []cpu.Hazard
	booted   bool // kernel machine has taken its reset exception
	loaded   int
	images   []*isa.Image // every image loaded, for late symbolization
	template string       // template the machine was forked from ("" = none)
}

// New builds a machine. With no options: the bare machine on the
// process-default engine.
func New(opts ...Option) (*Machine, error) {
	cfg := config{spaceBits: 16}
	for _, o := range opts {
		o(&cfg)
	}
	m := &Machine{engine: cfg.engine.resolve(), interlocked: cfg.interlocked, spaceBits: cfg.spaceBits}

	if cfg.kernelCfg != nil {
		k, err := kernel.NewMachine(*cfg.kernelCfg)
		if err != nil {
			return nil, err
		}
		m.kern = k
		m.cpu = k.CPU
	} else {
		words := cfg.physWords
		if words <= 0 {
			words = barePhysWords
		}
		if words > mem.MaxPhysWords {
			return nil, fmt.Errorf("sim: %d words of physical memory exceed the %d-word limit", words, mem.MaxPhysWords)
		}
		phys := mem.NewPhysical(words)
		bus := cpu.NewBus(phys)
		if cfg.dma {
			bus.DMA = mem.NewDMA(phys)
		}
		m.cpu = cpu.New(bus)
		m.cpu.Interlocked = cfg.interlocked
		m.installBareTrap()
		m.cpu.SetAudit(func(h cpu.Hazard) { m.hazards = append(m.hazards, h) })
		m.booted = true // the bare machine needs no reset exception
	}
	m.engine.apply(m.cpu)
	if err := m.attachObservers(&cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// installBareTrap services monitor calls host-side: the bare machine's
// whole "kernel" is one rfe at physical address zero (installed at
// Load), and this hook does the work the trap asked for.
func (m *Machine) installBareTrap() {
	m.cpu.SetTrapHook(func(code uint16) {
		switch code {
		case kernel.SysHalt:
			m.cpu.Halt()
		case kernel.SysPutChar:
			m.out.WriteByte(byte(m.cpu.Regs[regResult]))
		case kernel.SysPutInt:
			m.out.WriteString(strconv.FormatInt(int64(int32(m.cpu.Regs[regResult])), 10))
			m.out.WriteByte('\n')
		}
	})
}

// attachObservers wires hooks, observers, and telemetry — shared by New
// and Restore.
func (m *Machine) attachObservers(cfg *config) error {
	h := cfg.hooks
	if h.Step != nil {
		m.cpu.SetStepHook(h.Step)
	}
	if h.Mem != nil {
		m.cpu.SetMemHook(h.Mem)
	}
	if h.Branch != nil {
		m.cpu.SetBranchHook(h.Branch)
	}
	if h.Exc != nil {
		m.cpu.SetExcHook(h.Exc)
	}
	if h.RFE != nil {
		m.cpu.SetRFEHook(h.RFE)
	}
	if h.Stall != nil {
		m.cpu.SetStallHook(h.Stall)
	}
	if obs := cfg.observer; obs != nil {
		if m.kern != nil {
			obs.AttachMachine(m.kern)
		} else {
			obs.Attach(m.cpu)
		}
	}
	if reg := cfg.registry; reg != nil {
		if m.kern != nil {
			if err := trace.RegisterMachine(reg, m.kern); err != nil {
				return err
			}
		} else {
			if err := trace.RegisterCPUStats(reg, "cpu.", &m.cpu.Stats); err != nil {
				return err
			}
			if err := trace.RegisterTranslation(reg, "xlate.", &m.cpu.Trans); err != nil {
				return err
			}
		}
		if d := m.cpu.Bus.DMA; d != nil {
			if err := trace.RegisterDMA(reg, "dma.", d); err != nil {
				return err
			}
		}
	}
	for _, fn := range cfg.attach {
		fn(m.cpu)
	}
	return nil
}

// Load loads an image: onto the bare machine directly (one image only),
// or as a new process of the kernel machine. May be called repeatedly
// on kernel machines to load several processes.
func (m *Machine) Load(im *isa.Image) error {
	if m.kern != nil {
		_, err := m.kern.AddProcess(im, m.spaceBits)
		if err == nil {
			m.loaded++
			m.images = append(m.images, im)
		}
		return err
	}
	if m.loaded > 0 {
		return errors.New("sim: bare machine already holds an image")
	}
	if err := m.cpu.LoadImage(im); err != nil {
		return err
	}
	// Monitor calls vector through the exception path to physical
	// address zero; one rfe resumes after the trap (the host hook
	// already did the work). Images start above it (BareTextBase).
	m.cpu.IMem.Set(0, isa.Word(isa.RFE()))
	m.cpu.SetPC(uint32(im.Entry))
	m.loaded++
	m.images = append(m.images, im)
	return nil
}

// Images returns every image loaded into the machine, in load order.
// Observers attached after construction (the job service's per-job
// profiler) use them to register symbols; machines built by Restore
// have none, so restored jobs profile unsymbolized.
func (m *Machine) Images() []*isa.Image { return m.images }

// boot takes the kernel machine through its power-up reset exactly
// once; resumed (restored) machines skip it.
func (m *Machine) boot() {
	if !m.booted {
		m.cpu.Reset()
		m.booted = true
	}
}

// Boot forces the one-time power-up reset now instead of at the first
// Run/RunSteps call. Template capture uses it so a golden snapshot is
// taken post-boot — forks then start retiring user instructions
// immediately — and the admission benchmark uses it to separate
// construction cost from execution.
func (m *Machine) Boot() { m.boot() }

// Template returns the name of the template this machine was forked
// from, or "" for machines that were built cold. The label survives
// snapshot/restore (provenance).
func (m *Machine) Template() string { return m.template }

// COWStats reports the machine's copy-on-write memory counters:
// zero-valued for cold-built machines, live fault/privatization counts
// for template forks.
func (m *Machine) COWStats() mem.COWStats { return m.cpu.Bus.MMU.Phys.COWStats() }

// Run executes until the machine halts or the step limit is reached,
// returning the number of instructions executed. Calling Run again
// continues where the previous call stopped.
func (m *Machine) Run(maxSteps uint64) (uint64, error) {
	m.boot()
	return m.cpu.Run(maxSteps)
}

// RunSteps executes at most n scheduler steps (a step retires one
// instruction word, one whole chained superblock run on the Blocks
// engine, or one whole trace-dispatch pass on the Traces engine) and
// reports the instructions executed and whether the machine halted.
// It is the job service's preemption quantum: the machine stops at an
// instruction boundary, snapshot-safe, and continues with the next
// call.
func (m *Machine) RunSteps(n uint64) (uint64, bool) {
	m.boot()
	start := m.cpu.Stats.Instructions
	for i := uint64(0); i < n; i++ {
		if m.cpu.Step() != nil {
			break
		}
	}
	return m.cpu.Stats.Instructions - start, m.cpu.Halted
}

// Output returns everything the program wrote to the console so far.
func (m *Machine) Output() string {
	if m.kern != nil {
		return m.kern.ConsoleOutput()
	}
	return m.out.String()
}

// Stats returns the machine's dynamic measurements.
func (m *Machine) Stats() *cpu.Stats { return &m.cpu.Stats }

// Trans returns the translation-layer counters.
func (m *Machine) Trans() *cpu.TranslationStats { return &m.cpu.Trans }

// Hazards returns the load-use violations the audit recorded (bare
// machine; correct reorganized code records none).
func (m *Machine) Hazards() []cpu.Hazard { return m.hazards }

// Halted reports whether the machine has stopped.
func (m *Machine) Halted() bool { return m.cpu.Halted }

// Engine returns the resolved engine the machine runs on.
func (m *Machine) Engine() Engine { return m.engine }

// CPU exposes the underlying processor for tests and tools that need
// state the facade does not surface. Treat it as read-mostly.
func (m *Machine) CPU() *cpu.CPU { return m.cpu }

// Kernel returns the kernel machine, or nil for the bare machine.
func (m *Machine) Kernel() *kernel.Machine { return m.kern }

// DMA returns the bare machine's DMA engine (WithDMA), the kernel
// machine's if attached, or nil.
func (m *Machine) DMA() *mem.DMA { return m.cpu.Bus.DMA }
