package experiments

// cell looks up one scenario × policy cell for the test gates.
func (r EFleetReport) cell(scenario, policy string) (efleetCell, bool) {
	for _, row := range r.Rows {
		if row.Scenario == scenario && row.Policy == policy {
			return row.Cell, true
		}
	}
	return efleetCell{}, false
}
