package core

import "repro/internal/model"

// Reserved exposes the ledger's two reserved sums to the external tests.
func (m *Manager) Reserved() (admitted, evicted model.Resources) { return m.reserved() }
