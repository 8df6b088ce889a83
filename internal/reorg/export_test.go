package reorg

// Test-only access for the external tests in corpus_test.go, which need
// compiled corpus units (and so the codegen package, which imports this
// one).

// AllOptionSets exposes the option sets the internal tests sweep.
var AllOptionSets = allOptionSets

// CheckKeptLiveness drives the global delay pass over u one fill at a
// time, comparing the kept liveness with a fresh solve after each fill.
var CheckKeptLiveness = checkKeptLiveness

// FillOptionSets are the option sets under which the global delay pass
// runs.
var FillOptionSets = fillOptionSets

// CloneUnit deep-copies a unit.
var CloneUnit = cloneUnit
