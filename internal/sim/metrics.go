package sim

import (
	"fmt"
	"time"

	"weihl83/internal/obs"
)

// Metrics aggregates the measurements a workload run reports, built on the
// observability primitives (zero-value counters and histograms from
// internal/obs) so concurrent workers record without a mutex and latency
// quantiles come for free. Rates are derived, not stored.
type Metrics struct {
	Wall time.Duration

	transferCommits obs.Counter
	transferRetries obs.Counter
	transferFailed  obs.Counter // retries exhausted
	transferLat     obs.Histogram

	auditCommits obs.Counter
	auditRetries obs.Counter
	auditFailed  obs.Counter
	auditLat     obs.Histogram

	// violations counts audits whose observed total differed from the
	// invariant (must stay zero for atomic protocols).
	violations obs.Counter
}

// addTransfer records one completed transfer attempt chain.
func (m *Metrics) addTransfer(lat time.Duration, retries int64, failed bool) {
	m.transferLat.Observe(int64(lat))
	m.transferRetries.Add(retries)
	if failed {
		m.transferFailed.Inc()
	} else {
		m.transferCommits.Inc()
	}
}

// addAudit records one completed audit attempt chain.
func (m *Metrics) addAudit(lat time.Duration, retries int64, failed, violated bool) {
	m.auditLat.Observe(int64(lat))
	m.auditRetries.Add(retries)
	if failed {
		m.auditFailed.Inc()
	} else {
		m.auditCommits.Inc()
	}
	if violated {
		m.violations.Inc()
	}
}

// TransferCommits returns the number of committed transfer chains.
func (m *Metrics) TransferCommits() int64 { return m.transferCommits.Load() }

// TransferRetries returns the total retries across all transfer chains.
func (m *Metrics) TransferRetries() int64 { return m.transferRetries.Load() }

// TransferFailed returns the transfer chains that exhausted their retries.
func (m *Metrics) TransferFailed() int64 { return m.transferFailed.Load() }

// AuditCommits returns the number of committed audit chains.
func (m *Metrics) AuditCommits() int64 { return m.auditCommits.Load() }

// AuditRetries returns the total retries across all audit chains.
func (m *Metrics) AuditRetries() int64 { return m.auditRetries.Load() }

// AuditFailed returns the audit chains that exhausted their retries.
func (m *Metrics) AuditFailed() int64 { return m.auditFailed.Load() }

// ConservationViolations returns how many audits saw a non-conserved total.
func (m *Metrics) ConservationViolations() int64 { return m.violations.Load() }

// TransferThroughput returns committed transfers per second of wall time.
func (m *Metrics) TransferThroughput() float64 {
	if m.Wall <= 0 {
		return 0
	}
	return float64(m.TransferCommits()) / m.Wall.Seconds()
}

// MeanTransferLatency returns the mean wall time per committed transfer.
// The histogram's sum is exact, so this matches summing the durations.
func (m *Metrics) MeanTransferLatency() time.Duration {
	commits := m.TransferCommits()
	if commits == 0 {
		return 0
	}
	return time.Duration(m.transferLat.Sum()) / time.Duration(commits)
}

// MeanAuditLatency returns the mean wall time per committed audit.
func (m *Metrics) MeanAuditLatency() time.Duration {
	commits := m.AuditCommits()
	if commits == 0 {
		return 0
	}
	return time.Duration(m.auditLat.Sum()) / time.Duration(commits)
}

// TransferAbortRate returns retries per committed transfer.
func (m *Metrics) TransferAbortRate() float64 {
	commits := m.TransferCommits()
	if commits == 0 {
		return 0
	}
	return float64(m.TransferRetries()) / float64(commits)
}

// AuditAbortRate returns retries per committed audit.
func (m *Metrics) AuditAbortRate() float64 {
	commits := m.AuditCommits()
	if commits == 0 {
		return 0
	}
	return float64(m.AuditRetries()) / float64(commits)
}

// String renders a one-line summary.
func (m *Metrics) String() string {
	return fmt.Sprintf(
		"wall=%v transfers=%d (retries=%d, fail=%d, mean=%v) audits=%d (retries=%d, fail=%d, mean=%v) violations=%d",
		m.Wall.Round(time.Millisecond),
		m.TransferCommits(), m.TransferRetries(), m.TransferFailed(), m.MeanTransferLatency().Round(time.Microsecond),
		m.AuditCommits(), m.AuditRetries(), m.AuditFailed(), m.MeanAuditLatency().Round(time.Microsecond),
		m.ConservationViolations(),
	)
}
