// Package dram models main memory with the latency envelope of Table II
// (50-100 cycles): a multi-bank DRAM with open-row policy. A request to
// an open row costs the minimum latency; a row conflict pays the full
// precharge+activate cost. This stands in for DRAMSim2 in the original
// toolchain; the paper's proposal does not change DRAM traffic, so only a
// plausible latency distribution and access counting are required.
package dram

// Config describes the DRAM model.
type Config struct {
	Banks      int   // number of banks (power of two)
	RowBytes   int   // bytes per row (power of two)
	RowHitLat  int64 // cycles for an open-row access (Table II lower bound)
	RowMissLat int64 // cycles for a row conflict (Table II upper bound)
}

// DefaultConfig matches Table II: 50-100 cycle latency.
func DefaultConfig() Config {
	return Config{Banks: 8, RowBytes: 2048, RowHitLat: 50, RowMissLat: 100}
}

// Stats counts DRAM traffic.
type Stats struct {
	Accesses  uint64
	RowHits   uint64
	RowMisses uint64
}

// Model is the DRAM state: one open row per bank.
type Model struct {
	cfg      Config
	openRow  []uint64
	rowValid []bool
	stats    Stats
	bankMask uint64
	rowShift uint
}

// New builds a DRAM model. Panics on invalid (non-power-of-two) geometry.
func New(cfg Config) *Model {
	if cfg.Banks <= 0 || cfg.Banks&(cfg.Banks-1) != 0 {
		panic("dram: bank count must be a positive power of two")
	}
	if cfg.RowBytes <= 0 || cfg.RowBytes&(cfg.RowBytes-1) != 0 {
		panic("dram: row size must be a positive power of two")
	}
	shift := uint(0)
	for 1<<shift != cfg.RowBytes {
		shift++
	}
	return &Model{
		cfg:      cfg,
		openRow:  make([]uint64, cfg.Banks),
		rowValid: make([]bool, cfg.Banks),
		bankMask: uint64(cfg.Banks - 1),
		rowShift: shift,
	}
}

// Access performs one memory access and returns its latency in cycles.
func (m *Model) Access(addr uint64) int64 {
	m.stats.Accesses++
	row := addr >> m.rowShift
	bank := int(row & m.bankMask)
	if m.rowValid[bank] && m.openRow[bank] == row {
		m.stats.RowHits++
		return m.cfg.RowHitLat
	}
	m.stats.RowMisses++
	m.openRow[bank] = row
	m.rowValid[bank] = true
	return m.cfg.RowMissLat
}

// Stats returns a copy of the counters.
func (m *Model) Stats() Stats { return m.stats }

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Clone returns a deep copy of the model: open-row state and counters
// evolve independently of the original afterwards.
func (m *Model) Clone() *Model {
	c := *m
	c.openRow = append([]uint64(nil), m.openRow...)
	c.rowValid = append([]bool(nil), m.rowValid...)
	return &c
}

// CopyFrom overwrites m's open-row state and counters with src's without
// allocating. Both models must share a configuration; the snapshot
// restore path validates that before calling.
func (m *Model) CopyFrom(src *Model) {
	copy(m.openRow, src.openRow)
	copy(m.rowValid, src.rowValid)
	m.stats = src.stats
}

// Reset closes all rows and zeroes counters.
func (m *Model) Reset() {
	for i := range m.rowValid {
		m.rowValid[i] = false
	}
	m.stats = Stats{}
}
