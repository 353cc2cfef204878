package ts

// This file is the scaffolding for the parameterized protocol families
// (ring mutex, leader election, cache coherence) that give the model
// checker realistic many-state workloads. Each family builds
// its System by breadth-first search from the initial configurations, so
// only reachable configurations become states — the full cross product of
// a protocol's per-node variables is mostly unreachable and would drown
// the builder at interesting sizes.

// maxScenarioN caps the per-family parameter: configurations are encoded
// in fixed-size arrays (comparable, map-key friendly), and the state
// spaces past this size outgrow what the benchmarks need anyway.
const maxScenarioN = 12

// ScenarioSpec pairs an LTL formula (source text over the family's
// propositions) with its known verdict over the family's fair
// computations. The formula stays a string because ts sits below the
// ltl/mc layers; the mc scenario suite parses and checks each one.
type ScenarioSpec struct {
	Formula string
	Holds   bool
}

// protoTransition describes one named transition of a protocol family as
// a successor function over configurations.
type protoTransition[C comparable] struct {
	name string
	fair Fairness
	step func(C) []C
}

// buildReachable grows a System breadth-first from the initial
// configurations, declaring states and transition steps as they are
// discovered.
func buildReachable[C comparable](inits []C, name func(C) string, props func(C) []string, trans []protoTransition[C]) (*System, error) {
	b := NewBuilder()
	built := make([]*Transition, len(trans))
	for i, tr := range trans {
		built[i] = b.Transition(tr.name, tr.fair)
	}
	seen := map[C]bool{}
	var queue []C
	for _, c := range inits {
		b.SetInit(b.State(name(c), props(c)...))
		if !seen[c] {
			seen[c] = true
			queue = append(queue, c)
		}
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		from := b.State(name(c), props(c)...)
		for i, tr := range trans {
			for _, d := range tr.step(c) {
				built[i].Step(from, b.State(name(d), props(d)...))
				if !seen[d] {
					seen[d] = true
					queue = append(queue, d)
				}
			}
		}
	}
	b.AddIdle()
	return b.Build()
}
