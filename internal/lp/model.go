// Package lp is the linear-programming substrate of the reproduction: a
// small model-builder API with named variables, a cold two-phase dense
// simplex, and Solver's warm ladder (hot re-solve, or a fresh start, with
// the audited cold simplex behind both) over two kernels — the dense marker-block tableau and,
// from sparseMinRows rows up, the sparse revised simplex on an
// LU-factorized basis. The row count picks; no caller does.
//
// The paper's one-level-TUF dispatch problem is a pure LP (Section IV-1),
// and its multi-level problems reduce to LPs once every (request type, data
// center) pair commits to a utility level, so every planner ends here. Go
// has no production LP ecosystem, so the solvers are built from scratch.
// The cold path is the standard tableau method: Phase 1 drives artificial
// variables out of the basis, Phase 2 optimizes the true objective, with
// Dantzig pricing and an automatic switch to Bland's rule on degeneracy.
package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Sense is the direction of a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // left-hand side ≤ rhs
	GE              // left-hand side ≥ rhs
	EQ              // left-hand side = rhs
)

// String returns the conventional symbol for the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Status describes the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
	// NumericBreakdown reports that the simplex claimed optimality but the
	// solution failed the post-solve feasibility audit — the tableau
	// drifted numerically. Surfaced instead of a silently wrong answer;
	// callers treat it like IterationLimit (retry, escalate, re-scale).
	NumericBreakdown
	// Cutoff reports a trial stopped by its cutoff (see Solver.Trial): its
	// dual bound, the Result's Objective, fell below the cutoff, so its
	// optimum lies below it too. No solution is carried.
	Cutoff
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	case NumericBreakdown:
		return "numeric-breakdown"
	case Cutoff:
		return "cutoff"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Errors reported by Solve. A Result is still returned alongside these so
// the caller can inspect the status.
var (
	ErrInfeasible       = errors.New("lp: problem is infeasible")
	ErrUnbounded        = errors.New("lp: problem is unbounded")
	ErrIterationLimit   = errors.New("lp: iteration limit exceeded")
	ErrNumericBreakdown = errors.New("lp: solution failed the feasibility audit (numeric breakdown)")
)

// Term is one coefficient*variable entry of a linear expression.
type Term struct {
	Var  int // variable index returned by AddVariable
	Coef float64
}

// constraint is one stored row of the model.
type constraint struct {
	name  string
	terms []Term
	sense Sense
	rhs   float64
}

// Model is a linear program under construction. All variables are
// non-negative; upper bounds are expressed as explicit ≤ rows by the caller
// (or with AddUpperBound). The zero value is an empty maximization model.
type Model struct {
	names []string
	obj   []float64
	rows  []constraint
	// slab backs the rows' terms; a full one is left to its rows.
	slab     []Term
	minimize bool
	// stamp counts the edits that change what a kernel factorized — rows,
	// columns, terms, senses, direction — and none that change only numbers
	// (SetObjective, SetRHS, Fix): a Solver that retained a kernel for this
	// very object knows in O(1) whether the kernel still describes it.
	stamp uint64
	// fixed pins variables at zero (see Fix).
	fixed pins
	// costs counts SetObjective calls, so a trial knows whether the costs
	// moved since its checkpoint (see Solver.Trial).
	costs uint64
}

// NewModel returns an empty maximization model.
func NewModel() *Model { return &Model{} }

// Reset empties the model, keeping its storage, so a builder that solves
// one LP after another refills one model. Nothing may still read the rows
// and names of the model as it was.
func (m *Model) Reset() {
	m.names, m.obj, m.rows, m.slab, m.minimize = m.names[:0], m.obj[:0], m.rows[:0], m.slab[:0], false
	clear(m.fixed)
	m.fixed = m.fixed[:0]
	m.stamp++
}

// Grow reserves room for the given further variables, rows and row terms,
// so a builder that knows its size allocates once instead of per row.
func (m *Model) Grow(vars, rows, terms int) {
	m.names, m.obj, m.rows = slices.Grow(m.names, vars), slices.Grow(m.obj, vars), slices.Grow(m.rows, rows)
	if cap(m.slab)-len(m.slab) < terms {
		m.slab = make([]Term, 0, terms)
	}
}

// SetMinimize switches the model to minimization of the objective.
func (m *Model) SetMinimize(min bool) { m.minimize, m.stamp = min, m.stamp+1 }

// NumVariables returns the number of variables added so far.
func (m *Model) NumVariables() int { return len(m.names) }

// NumConstraints returns the number of constraint rows added so far.
func (m *Model) NumConstraints() int { return len(m.rows) }

// AddVariable adds a non-negative variable with the given objective
// coefficient and returns its index.
func (m *Model) AddVariable(name string, objCoef float64) int {
	m.names = append(m.names, name)
	m.obj = append(m.obj, objCoef)
	m.stamp++
	return len(m.names) - 1
}

// SetObjective overwrites the objective coefficient of variable v.
func (m *Model) SetObjective(v int, coef float64) {
	m.obj[v] = coef
	m.costs++
}

// SetRHS overwrites the right-hand side of constraint row c.
func (m *Model) SetRHS(c int, rhs float64) { m.rows[c].rhs = rhs }

// Fix pins variable v at zero (on) or frees it again (off). Like SetRHS it
// changes a number — the variable's upper bound, 0 or none — not the
// structure, so a kernel retained for the model stays hot across it: a
// fixed column never enters a basis, and one still basic above the
// tolerance is a primal infeasibility the dual simplex drives out (DESIGN
// §14.2). A pin is a bound, never a cost: a big-M penalty would need a
// bound on the duals that nothing provides.
func (m *Model) Fix(v int, on bool) {
	if n := len(m.fixed); n <= v {
		if !on {
			return
		}
		m.fixed = slices.Grow(m.fixed, len(m.names)-n)[:len(m.names)]
		clear(m.fixed[n:])
	}
	m.fixed[v] = on
}

// pins flags the variables Fix has pinned, by index; those past its end
// are free, and so are slack and artificial columns, past every variable.
// A kernel copies a model's pins into a local before a loop over columns
// or rows, so a model never pinned costs each one compare.
type pins []bool

// has reports whether column c is pinned.
func (p pins) has(c int) bool { return uint(c) < uint(len(p)) && p[c] }

// VariableName returns the name given to variable v.
func (m *Model) VariableName(v int) string { return m.names[v] }

// RowName returns the name given to constraint row c.
func (m *Model) RowName(c int) string { return m.rows[c].name }

// AddConstraint adds the row Σ terms (sense) rhs and returns its index.
// Terms may mention a variable more than once; coefficients accumulate.
func (m *Model) AddConstraint(name string, terms []Term, sense Sense, rhs float64) int {
	if cap(m.slab)-len(m.slab) < len(terms) {
		m.slab = make([]Term, 0, max(len(terms), 2*cap(m.slab), 32))
	}
	at := len(m.slab)
	m.slab = append(m.slab, terms...)
	m.rows = append(m.rows, constraint{name: name, terms: m.slab[at:len(m.slab):len(m.slab)], sense: sense, rhs: rhs})
	m.stamp++
	return len(m.rows) - 1
}

// AddUpperBound constrains variable v ≤ bound via an explicit row.
func (m *Model) AddUpperBound(v int, bound float64) int {
	return m.AddConstraint(m.names[v]+"_ub", []Term{{Var: v, Coef: 1}}, LE, bound)
}

// RowSpec returns a copy of constraint row c: its terms, sense and rhs.
// It lets a checker outside the package (core's duality certificate, its
// refreshed-against-rebuilt comparison) read a Model without reaching into
// its representation.
func (m *Model) RowSpec(c int) ([]Term, Sense, float64) {
	row := m.rows[c]
	terms := make([]Term, len(row.terms))
	copy(terms, row.terms)
	return terms, row.sense, row.rhs
}

// ObjectiveCoefs returns a copy of the objective coefficient vector.
func (m *Model) ObjectiveCoefs() []float64 {
	out := make([]float64, len(m.obj))
	copy(out, m.obj)
	return out
}

// IsMinimize reports whether the model minimizes its objective.
func (m *Model) IsMinimize() bool { return m.minimize }

// dir is the sign that turns the model's objective into the kernels'
// internal maximization.
func (m *Model) dir() float64 {
	if m.minimize {
		return -1
	}
	return 1
}

// Result is the outcome of solving a Model.
type Result struct {
	Status    Status
	Objective float64   // objective value in the model's own direction
	X         []float64 // one value per variable, indexed as returned by AddVariable
	// Duals holds one shadow price per constraint row: the marginal change
	// of the objective per unit increase of that row's rhs (in the model's
	// own direction). Zero for non-binding rows by complementary
	// slackness. Only populated at Optimal.
	Duals      []float64
	Iterations int
	// Warm reports that the result came from a warm-started path (hot
	// re-solve, trial or fresh start) of a Solver rather than the cold
	// two-phase simplex. Warm results are audited against the model
	// before being returned; see DESIGN.md §12.
	Warm bool
}

// Value returns the solution value of variable v.
func (r *Result) Value(v int) float64 { return r.X[v] }

// RowActivity returns Σ coef*x for constraint row c under solution x.
func (m *Model) RowActivity(c int, x []float64) float64 {
	var s float64
	for _, t := range m.rows[c].terms {
		s += t.Coef * x[t.Var]
	}
	return s
}

// CheckFeasible verifies that x satisfies every constraint, the
// non-negativity bounds and the pins of Fix within tol, returning a
// descriptive error for the first violation found. It is used heavily by
// tests and by callers that post-process solutions.
func (m *Model) CheckFeasible(x []float64, tol float64) error {
	if len(x) != len(m.names) {
		return fmt.Errorf("lp: solution has %d values, model has %d variables", len(x), len(m.names))
	}
	for i, v := range x {
		if v < -tol {
			return fmt.Errorf("lp: variable %s = %g violates non-negativity", m.names[i], v)
		}
		if v > tol && m.fixed.has(i) {
			return fmt.Errorf("lp: variable %s = %g violates its pin at 0", m.names[i], v)
		}
	}
	for i, row := range m.rows {
		act := m.RowActivity(i, x)
		switch row.sense {
		case LE:
			if act > row.rhs+tol {
				return fmt.Errorf("lp: row %s: %g > %g", row.name, act, row.rhs)
			}
		case GE:
			if act < row.rhs-tol {
				return fmt.Errorf("lp: row %s: %g < %g", row.name, act, row.rhs)
			}
		case EQ:
			if math.Abs(act-row.rhs) > tol {
				return fmt.Errorf("lp: row %s: %g != %g", row.name, act, row.rhs)
			}
		}
	}
	return nil
}

// ObjectiveValue evaluates the model objective at x (in the model's own
// direction, i.e. the value being maximized or minimized).
func (m *Model) ObjectiveValue(x []float64) float64 {
	var s float64
	for i, c := range m.obj {
		s += c * x[i]
	}
	return s
}
