package cube

// RollUpBase rolls v's base view up into the view at mask the way a
// build does (see aggregateFromParent) and returns the child's entry
// count: the roll-up kernel alone, for BenchmarkRollUp.
func (v *Views) RollUpBase(mask int) int {
	return len(aggregateFromParent(v, len(v.stored)-1, mask).keys)
}
