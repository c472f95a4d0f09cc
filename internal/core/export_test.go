package core

// GreedySeedObjective plans in with o, whose capture exports the seed a
// greedy start imports, then runs o's greedy seed on in twice, each time
// through an engine of o's own as Plan does: the first arms o's greedy
// chain, the second re-solves its start on it. It returns the objective of
// the assignment the second reaches and how its start was solved.
func GreedySeedObjective(o *Optimized, in *Input) (float64, string, error) {
	if _, err := o.Plan(in); err != nil {
		return 0, "", err
	}
	var a assignment
	for i := 0; i < 2; i++ {
		eng := o.open(in, o.Name(), o.PerServer, o.Refine)
		var err error
		a, err = o.greedySeed(eng)
		eng.close()
		if err != nil {
			return 0, "", err
		}
	}
	return a.obj, o.warm.greedy.sv.LastOutcome().Path, nil
}
