// The dataflow analyzer honors the same suppression contract as the
// syntactic ones: the case below seeds a real lockorder finding and silences
// it with a reasoned directive, so TestIgnoreDirective pins the ignore path
// of the interprocedural analysis too.
package ignore

// handoff returns holding b.mu (the quiesce transfer-of-ownership shape);
// lockorder's held-at-return discipline is silenced with the documented
// reason.
func handoff(b *box) func() {
	b.mu.Lock()
	//lint:ignore lockorder ownership of b.mu transfers to the caller via the returned release func
	return b.mu.Unlock
}
