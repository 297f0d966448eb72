package experiment

// Scenario returns the named source's result block.
func (m *Manifest) Scenario(name string) (ScenarioResult, bool) {
	for _, s := range m.Scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return ScenarioResult{}, false
}
