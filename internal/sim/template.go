package sim

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mips/internal/cpu"
	"mips/internal/mem"
)

// Warm-fork admission (paper §2: move work out of the repeated path
// into one-time preparation). A Template is a named golden snapshot —
// a machine captured after kernel boot and program load, optionally
// after a warm-up step budget — held in a form forks can be minted from
// without redoing any of that work:
//
//   - the snapshot payload is decoded once (gob decode is O(state));
//   - the physical-memory capture is materialized once into an
//     immutable mem.Golden frame set, with frames only for the pages
//     the capture holds, and the instruction-memory capture likewise
//     into an immutable cpu.GoldenCode;
//   - the kernel image, when the template is a kernel machine, comes
//     from the per-size assembly cache (kernel.NewMachineShell).
//
// Fork then costs O(pages-touched): the new machine's data and
// instruction memories are copy-on-write views of the golden pages, and
// only the CPU registers, MMU map, and device state — all small — are
// copied per fork. The template's snapshot bytes stay byte-deterministic
// and engine-agnostic; a fork may run on any engine regardless of which
// engine the template was captured on.

// ErrTemplateMissing reports a fork or lookup against a template name
// the pool does not hold.
var ErrTemplateMissing = errors.New("sim: no such template")

// Template is one named golden snapshot forks are minted from. Safe for
// concurrent use: the decoded wire and golden pages are immutable.
type Template struct {
	name    string
	raw     []byte // canonical snapshot bytes (as uploaded/captured)
	wire    *snapshotWire
	golden  *mem.Golden
	code    *cpu.GoldenCode
	created time.Time
	forks   atomic.Uint64
}

// Name returns the template's pool name.
func (t *Template) Name() string { return t.name }

// Snapshot returns the template's canonical snapshot bytes. The slice
// is shared; callers must not modify it.
func (t *Template) Snapshot() []byte { return t.raw }

// Fork mints a new machine from the template in O(pages-touched):
// copy-on-write memories over the golden pages plus a copy of the small
// per-machine state. Options may re-attach observability and override
// the engine, exactly as for Restore.
func (t *Template) Fork(opts ...Option) (*Machine, error) {
	m, err := buildFromWire(t.wire, t, opts)
	if err != nil {
		return nil, err
	}
	m.template = t.name
	t.forks.Add(1)
	return m, nil
}

// Info returns the template's listing metadata.
func (t *Template) Info() TemplateInfo {
	return TemplateInfo{
		Name:      t.name,
		Kernel:    t.wire.Kernel,
		Engine:    Engine(t.wire.Engine).String(),
		PhysWords: t.wire.Phys.Size,
		Bytes:     len(t.raw),
		Created:   t.created,
		Forks:     t.forks.Load(),
	}
}

// TemplateInfo is the listing view of a template.
type TemplateInfo struct {
	Name      string    `json:"name"`
	Kernel    bool      `json:"kernel"`
	Engine    string    `json:"engine"` // engine the template was captured on (forks may override)
	PhysWords uint32    `json:"phys_words"`
	Bytes     int       `json:"bytes"` // snapshot payload size
	Created   time.Time `json:"created"`
	Forks     uint64    `json:"forks"` // machines minted from this template
}

// TemplatePool is a named set of golden snapshots. Safe for concurrent
// use; templates themselves are immutable once stored.
type TemplatePool struct {
	mu        sync.RWMutex
	templates map[string]*Template
}

// NewTemplatePool returns an empty pool.
func NewTemplatePool() *TemplatePool {
	return &TemplatePool{templates: make(map[string]*Template)}
}

// Put stores a template under name from snapshot bytes (the Snapshot
// wire format), replacing any previous template of that name. The
// bytes are validated and pre-decoded so every later Fork skips the
// decode entirely; malformed bytes fail with ErrSnapshotFormat, as in
// Restore.
func (p *TemplatePool) Put(name string, snapshot []byte) (*Template, error) {
	if name == "" {
		return nil, errors.New("sim: template needs a name")
	}
	wire, err := decodeWire(bytes.NewReader(snapshot))
	if err != nil {
		return nil, err
	}
	t := &Template{
		name:    name,
		raw:     append([]byte(nil), snapshot...),
		wire:    wire,
		golden:  mem.GoldenFromState(wire.Phys),
		code:    cpu.GoldenCodeFromState(&wire.CPU),
		created: time.Now(),
	}
	p.mu.Lock()
	p.templates[name] = t
	p.mu.Unlock()
	return t, nil
}

// Capture boots the machine, optionally runs warmupSteps steps (see
// Machine.RunSteps), snapshots it, and stores the result under name.
// The machine's translations and their counters stay behind: every fork
// starts with zero counters and runs on the template's golden code, so
// the first fork translates and publishes there, and later forks adopt
// what it published. The machine is consumed as the template master
// and should not be run afterwards.
func (p *TemplatePool) Capture(name string, m *Machine, warmupSteps uint64) (*Template, error) {
	m.Boot()
	if warmupSteps > 0 {
		if _, halted := m.RunSteps(warmupSteps); halted {
			return nil, fmt.Errorf("sim: template %q halted during warm-up (%d steps)", name, warmupSteps)
		}
	}
	snap, err := m.SnapshotBytes()
	if err != nil {
		return nil, err
	}
	return p.Put(name, snap)
}

// Get returns a template by name.
func (p *TemplatePool) Get(name string) (*Template, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	t, ok := p.templates[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrTemplateMissing, name)
	}
	return t, nil
}

// Delete removes a template, reporting whether it existed. Machines
// already forked from it keep running: they hold the golden pages
// through their own references.
func (p *TemplatePool) Delete(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.templates[name]
	delete(p.templates, name)
	return ok
}

// List returns every template's metadata, sorted by name.
func (p *TemplatePool) List() []TemplateInfo {
	p.mu.RLock()
	out := make([]TemplateInfo, 0, len(p.templates))
	for _, t := range p.templates {
		out = append(out, t.Info())
	}
	p.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
