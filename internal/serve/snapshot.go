package serve

import (
	"fmt"

	"repro/internal/lifecycle"
	"repro/internal/predict"
)

// VMStatus is one served VM's externally visible placement state.
type VMStatus struct {
	Name string `json:"name"`
	ID   int    `json:"id"`
	// Status walks pending → admitted → placed (→ departed), or ends at
	// rejected / duplicate.
	Status string `json:"status"`
	// Host/DC locate the VM while placed (-1 otherwise).
	Host int `json:"host"`
	DC   int `json:"dc"`
	// AdmitTick is when admission granted the VM (-1 before/never).
	AdmitTick int `json:"admit_tick"`
	// Deferrals counts admission deferrals so far.
	Deferrals int `json:"deferrals"`
}

// VM status values.
const (
	StatusPending  = "pending"
	StatusAdmitted = "admitted"
	StatusPlaced   = "placed"
	StatusRejected = "rejected"
	StatusDeparted = "departed"
)

// Snapshot is the read side of the single-writer split: the engine loop
// publishes a fresh immutable Snapshot after every tick, and every query
// handler reads the latest one — no handler ever touches engine state.
type Snapshot struct {
	Tick        int  `json:"tick"`
	Rounds      int  `json:"rounds"`
	ActiveVMs   int  `json:"active_vms"`
	UnplacedVMs int  `json:"unplaced_vms"`
	Degraded    bool `json:"degraded"`
	Draining    bool `json:"draining"`

	// Admission backlog, as of the snapshot's tick: admitted VMs with no
	// host yet and fault-evicted VMs with no host yet (the World's open
	// homeless records by cause), and the deferral queue.
	PendingAdmits   int `json:"pending_admits"`
	PendingRehomes  int `json:"pending_rehomes"`
	PendingDeferred int `json:"pending_deferred"`

	// Intake pathologies, counted not errored.
	DroppedTelemetry int `json:"dropped_telemetry"`
	DuplicateOffers  int `json:"duplicate_offers"`

	Churn  lifecycle.Stats      `json:"churn"`
	Faults lifecycle.FaultStats `json:"faults"`

	AvgSLA     float64 `json:"avg_sla"`
	RevenueEUR float64 `json:"revenue_eur"`
	EnergyEUR  float64 `json:"energy_eur"`
	PenaltyEUR float64 `json:"penalty_eur"`
	ProfitEUR  float64 `json:"profit_eur"`

	// Placement-log position, for replay clients verifying determinism.
	LogLines  int    `json:"log_lines"`
	LogDigest string `json:"log_digest"`

	// Durability position: write-ahead journal size and the tick the
	// latest checkpoint certified (-1 before any; zeros with no Dir).
	JournalEntries int   `json:"journal_entries"`
	JournalBytes   int64 `json:"journal_bytes"`
	LastCheckpoint int   `json:"last_checkpoint_tick"`

	VMs map[string]VMStatus `json:"vms"`

	Online      *predict.OnlineStats `json:"online,omitempty"`
	Retrain     *RetrainStats        `json:"retrain,omitempty"`
	Calibration *CalibrationReport   `json:"calibration,omitempty"`

	// Err reports a fatal engine error; the service stops ticking.
	Err string `json:"err,omitempty"`
}

// digestString renders a journal/log digest for the wire.
func digestString(d uint64) string { return fmt.Sprintf("%016x", d) }
