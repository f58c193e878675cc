package lint

// All returns the full aiqlvet suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		BoundedMake,
		CtxFlow,
		CursorClose,
		ErrCmp,
		LockGuard,
		ObsReg,
		WallClock,
	}
}
