package ccarch

// PC exposes the program counter to the external tests in step_test.go,
// which need compiled programs (and so the codegen package, which
// imports this one).
func (m *Machine) PC() int { return m.pc }
