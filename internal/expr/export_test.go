package expr

// Internals the tests of package expr_test reach for. Those tests compare
// against the oracle, which imports expr, so they cannot live inside it.

var (
	ArithTyped = arithTyped
	ElemEqual  = elemEqual
	Verify     = verify
	At         = at
)

const (
	Recheck     = recheck
	MinKeySlots = minKeySlots
	HashMul     = hashMul
)

// FilterFallback runs the per-row fallback over the whole predicate.
func FilterFallback(pred Expr, in *Batch, cand, out []int32, cost *Cost) []int32 {
	var sc FilterScratch
	return sc.rows(pred, in, cand, out, true, cost)
}

// Slots returns the number of slots of the table's key index.
func (t *JoinTable) Slots() int { return len(t.table.slots) }

var PresenceSpan = presenceSpan

// Layout names the way the table finds a probe key: "bitmap" (hashed
// behind a presence bitmap) or "hashed".
func (t *JoinTable) Layout() string {
	if t.present != nil {
		return "bitmap"
	}
	return "hashed"
}
