package sim

import (
	"bytes"
	"errors"
	"weak"

	"mips/internal/isa"
)

// RestoreOver restores a bare machine's snapshot onto m in place: m
// keeps its CPU, with whatever that CPU has translated, and its memory,
// and takes the snapshot's state through RestoreState. Restore builds a
// new machine instead, so only this reaches a restore over translations
// of other code.
func RestoreOver(m *Machine, snap []byte) error {
	wire, err := decodeWire(bytes.NewReader(snap))
	if err != nil {
		return err
	}
	if wire.Kernel || wire.DMA != nil || m.kern != nil {
		return errors.New("RestoreOver: bare machines without DMA only")
	}
	if err := m.cpu.Bus.MMU.Phys.RestoreState(wire.Phys); err != nil {
		return err
	}
	m.cpu.Bus.MMU.RestoreState(wire.MMU)
	if err := m.cpu.RestoreState(wire.CPU); err != nil {
		return err
	}
	m.out.Reset()
	m.out.WriteString(wire.Output)
	m.hazards = append(m.hazards[:0], wire.Hazards...)
	return nil
}

// BareCodePublished reports whether the image wp points to has a bare
// machine's golden code in the table.
func BareCodePublished(wp weak.Pointer[isa.Image]) bool {
	bareCodes.Lock()
	defer bareCodes.Unlock()
	_, ok := bareCodes.m[wp]
	return ok
}
