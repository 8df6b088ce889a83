package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/mem"
)

// Snapshot wire format, version 7:
//
//	offset  size  field
//	0       8     magic "MIPSSNAP"
//	8       4     format version, little-endian uint32
//	12      8     payload length in bytes, little-endian uint64
//	20      4     CRC-32 (IEEE) of the payload
//	24      n     payload: gob-encoded snapshotWire
//
// The payload is deterministic: every map in the machine state is
// flattened to a slice sorted by key before encoding, so two identical
// machines produce byte-identical snapshots. Version policy: the
// version bumps on ANY change to snapshotWire or the captured state
// structs — there is no in-place migration; Restore rejects versions it
// was not built for (see DESIGN.md "Snapshot format"). A golden-bytes
// fixture (testdata/fib.snap) fails the tests on any change to the
// bytes, so a format change is always a deliberate version bump.

const (
	snapshotMagic = "MIPSSNAP"
	// SnapshotVersion is the current snapshot format version. Versions
	// 2-4 grew the translation-layer counters the capture then carried;
	// version 5 added the template provenance label (warm-fork
	// admission); version 6 dropped the translation-layer counters,
	// which describe caches the capture never held; version 7 writes
	// instruction memory as its length and its runs of code
	// (cpu.CodeRun) instead of every word up to that length. Each
	// changes the gob payload.
	SnapshotVersion = 7
	snapshotHeader  = 24
	// maxSnapshotPayload bounds how much Restore will read: a corrupt
	// length field must not become an allocation bomb. 1 GiB is far
	// above any real machine capture (the largest memory is 16 MB plus
	// instruction memory and backing store).
	maxSnapshotPayload = 1 << 30
)

// ErrSnapshotFormat wraps every malformed-snapshot failure, so callers
// can distinguish "bad bytes" from I/O errors.
var ErrSnapshotFormat = fmt.Errorf("sim: malformed snapshot")

// snapshotWire is the gob payload: machine shape, facade state, and the
// per-layer captures.
type snapshotWire struct {
	Kernel      bool
	Engine      int32
	Interlocked bool
	Booted      bool
	SpaceBits   uint8
	Output      string // bare-machine console
	Hazards     []cpu.Hazard
	Template    string // template the machine was forked from ("" = none)

	CPU  cpu.State
	Phys mem.PhysState
	MMU  mem.MMUState
	DMA  *mem.DMAState
	Kern *kernel.State
}

// gob numbers wire types process-wide in first-use order, so without
// this the payload bytes would depend on what else the process had
// gob-encoded first (an isa.Image, say). Encoding the payload type once
// at init fixes its numbering in every process that links the package.
func init() { gob.NewEncoder(io.Discard).Encode(&snapshotWire{}) }

// Snapshot writes a deterministic, versioned checkpoint of the whole
// machine. Call it only at an instruction boundary: between Step/Run
// calls, or from the job service's quantum boundaries.
func (m *Machine) Snapshot(w io.Writer) error {
	wire := snapshotWire{
		Kernel:      m.kern != nil,
		Engine:      int32(m.engine),
		Interlocked: m.interlocked,
		Booted:      m.booted,
		SpaceBits:   m.spaceBits,
		Output:      m.out.String(),
		Hazards:     append([]cpu.Hazard(nil), m.hazards...),
		Template:    m.template,
		CPU:         m.cpu.CaptureState(),
		Phys:        m.cpu.Bus.MMU.Phys.CaptureState(),
		MMU:         m.cpu.Bus.MMU.CaptureState(),
	}
	if d := m.cpu.Bus.DMA; d != nil {
		st := d.CaptureState()
		wire.DMA = &st
	}
	if m.kern != nil {
		st := m.kern.CaptureState()
		wire.Kern = &st
	}
	return encodeWire(w, &wire)
}

// encodeWire writes the container around a gob-encoded payload.
func encodeWire(w io.Writer, wire *snapshotWire) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(wire); err != nil {
		return fmt.Errorf("sim: snapshot encode: %w", err)
	}
	var hdr [snapshotHeader]byte
	copy(hdr[:8], snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], SnapshotVersion)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// SnapshotBytes is Snapshot into a byte slice.
func (m *Machine) SnapshotBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeWire validates the container, decodes the payload, and checks
// the memory it describes: physical and instruction memory sizes within
// mem.MaxPhysWords (and a physical size a kernel machine can run on,
// for kernel snapshots), every run inside its memory and instruction
// memory's runs in address order without overlap, and instruction
// words, in memory and on the kernel's disk, that isa.Instr.Validate
// accepts. Every path that builds from snapshot bytes comes through
// here, so no later step allocates by a size the bytes claim or
// executes a word no program can hold. Malformed input of any
// kind — truncated, wrong magic or version, bad checksum, corrupt gob,
// impossible memory, illegal code — returns an error wrapping
// ErrSnapshotFormat; it never panics (the fuzz tests pin this).
func decodeWire(r io.Reader) (*snapshotWire, error) {
	var hdr [snapshotHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrSnapshotFormat, err)
	}
	if string(hdr[:8]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSnapshotFormat, hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != SnapshotVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads version %d)", ErrSnapshotFormat, v, SnapshotVersion)
	}
	n := binary.LittleEndian.Uint64(hdr[12:20])
	if n > maxSnapshotPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrSnapshotFormat, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: short payload: %v", ErrSnapshotFormat, err)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(hdr[20:24]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotFormat)
	}
	wire, err := decodeGob(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: payload decode: %v", ErrSnapshotFormat, err)
	}
	if err := wire.Phys.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	if wire.Kernel {
		if err := kernel.CheckPhysWords(int(wire.Phys.Size)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
		}
	}
	if err := wire.CPU.ValidateIMem(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	for _, r := range wire.CPU.IMem {
		if err := checkCode(fmt.Sprintf("code run at %d", r.Base), r.Words); err != nil {
			return nil, err
		}
	}
	if wire.Kern != nil {
		for _, pg := range wire.Kern.DiskPages {
			if err := checkCode(fmt.Sprintf("disk page %d", pg.VPage), pg.Code); err != nil {
				return nil, err
			}
		}
	}
	return wire, nil
}

// checkCode rejects instruction words isa.Instr.Validate rejects — an
// out-of-range register, an unknown operation, an illegal packing —
// which no engine may be asked to execute: a register field past the
// register file would index out of range. The zero word is unwritten
// instruction memory, which a fetch reports as an illegal instruction.
func checkCode(where string, words []isa.Instr) error {
	for i, in := range words {
		if in.ALU == nil && in.Mem == nil {
			continue
		}
		if err := in.Validate(); err != nil {
			return fmt.Errorf("%w: %s word %d: %v", ErrSnapshotFormat, where, i, err)
		}
	}
	return nil
}

// decodeGob decodes the payload, converting any decoder panic (gob can
// panic on pathological type descriptions) into an error.
func decodeGob(payload []byte) (wire *snapshotWire, err error) {
	defer func() {
		if r := recover(); r != nil {
			wire, err = nil, fmt.Errorf("decoder panic: %v", r)
		}
	}()
	wire = new(snapshotWire)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(wire); err != nil {
		return nil, err
	}
	return wire, nil
}

// Restore rebuilds a machine from a snapshot. The machine continues
// exactly where the original left off: same registers, memory, pipeline
// and device state, same future event stream. Options may re-attach
// observability (WithHooks, WithTelemetry, WithObserver, WithAttach)
// and override the engine (WithEngine) — engine choice never changes
// observable behavior, so a snapshot taken on one engine may resume on
// another.
func Restore(r io.Reader, opts ...Option) (*Machine, error) {
	wire, err := decodeWire(r)
	if err != nil {
		return nil, err
	}
	return buildFromWire(wire, nil, opts)
}

// buildFromWire materializes a machine from a decoded snapshot payload —
// the tail shared by Restore and Template.Fork. With t nil the machine
// gets a fresh physical and instruction memory holding the capture's
// pages. With t the template the wire was decoded for, both memories
// are copy-on-write forks of its golden pages, already holding the
// captured contents, which is what makes warm-fork admission
// O(pages-touched).
//
// The wire may be shared by concurrent forks: this function and every
// RestoreState it calls only read from it (slices are deep-copied into
// the machine).
func buildFromWire(wire *snapshotWire, t *Template, opts []Option) (*Machine, error) {
	cfg := config{spaceBits: wire.SpaceBits}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.spaceBits == 0 {
		cfg.spaceBits = 16
	}
	engine := Engine(wire.Engine)
	if cfg.engine != Default {
		engine = cfg.engine.resolve()
	}
	if engine < Reference || engine > Traces {
		return nil, fmt.Errorf("%w: engine %d out of range", ErrSnapshotFormat, wire.Engine)
	}
	if wire.Kernel && wire.Kern == nil {
		return nil, fmt.Errorf("%w: kernel snapshot without device state", ErrSnapshotFormat)
	}
	var phys *mem.Physical
	if t != nil {
		phys = t.golden.Fork()
	} else {
		phys = mem.NewPhysical(int(wire.Phys.Size))
		if err := phys.RestoreState(wire.Phys); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
		}
	}

	m := &Machine{
		engine:      engine,
		interlocked: wire.Interlocked,
		spaceBits:   cfg.spaceBits,
		booted:      wire.Booted,
		loaded:      1,
		hazards:     append([]cpu.Hazard(nil), wire.Hazards...),
		template:    wire.Template,
	}
	if wire.Kernel {
		k, err := kernel.NewMachineShell(phys, kernel.Config{})
		if err != nil {
			return nil, fmt.Errorf("sim: restore: %w", err)
		}
		m.kern = k
		m.cpu = k.CPU
		k.RestoreState(*wire.Kern)
	} else {
		bus := cpu.NewBus(phys)
		if wire.DMA != nil || cfg.dma {
			bus.DMA = mem.NewDMA(phys)
		}
		m.cpu = cpu.New(bus)
		m.installBareTrap()
		m.cpu.SetAudit(func(h cpu.Hazard) { m.hazards = append(m.hazards, h) })
		m.out.WriteString(wire.Output)
	}
	m.cpu.Bus.MMU.RestoreState(wire.MMU)
	var err error
	if t != nil {
		err = m.cpu.RestoreFork(&wire.CPU, t.code)
	} else {
		err = m.cpu.RestoreState(wire.CPU)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: restore: %w", err)
	}
	if wire.DMA != nil {
		m.cpu.Bus.DMA.RestoreState(*wire.DMA)
	}
	m.cpu.Interlocked = wire.Interlocked
	m.engine.apply(m.cpu)
	if err := m.attachObservers(&cfg); err != nil {
		return nil, err
	}
	return m, nil
}
