package weihl83

// DetectorResident reports how many transactions s's deadlock detector
// holds state for (0 for a timeout-only system), so tests can assert it
// drains once every transaction has finished.
func DetectorResident(s *System) int {
	if s.detector == nil {
		return 0
	}
	return s.detector.Resident()
}
