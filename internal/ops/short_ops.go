package ops

import (
	"repro/internal/core"
	"repro/internal/rng"
	"repro/stm"
)

// Short operations (Appendix B.2.3).

// tenRandomAtomicParts implements the OP1/OP9/OP15 shape: choose 10 random
// atomic-part ids, look each up, apply fn to the ones found. Returns the
// number processed (possibly < 10; id misses are not failures here).
func tenRandomAtomicParts(tx stm.Tx, s *core.Structure, r *rng.Rand, fn func(*core.AtomicPart)) int {
	n := 0
	for i := 0; i < 10; i++ {
		if p, ok := s.Idx.AtomicByID.Get(tx, s.RandomAtomicID(r)); ok {
			n++
			fn(p)
		}
	}
	return n
}

// dateRangeParts implements OP2/OP3/OP10: apply fn to every atomic part
// with buildDate in [lo, hi] as the index walk reaches it; returns the
// number processed. fn must not change a build date (core.Index.Range).
func dateRangeParts(tx stm.Tx, s *core.Structure, lo, hi int, fn func(*core.AtomicPart)) int {
	n := 0
	s.AtomicPartsByDate(tx, lo, hi, func(p *core.AtomicPart) bool {
		n++
		fn(p)
		return true
	})
	return n
}

// siblingsComplex implements OP6/OP12: random complex assembly by id; apply
// fn to each of its siblings. Fails on an id miss; the root (no parent)
// has no siblings and yields 0.
func siblingsComplex(tx stm.Tx, s *core.Structure, r *rng.Rand, fn func(*core.ComplexAssembly)) (int, error) {
	ca, ok := s.LookupComplex(tx, s.RandomComplexID(r))
	if !ok {
		return 0, ErrFailed
	}
	if ca.Super == nil {
		return 0, nil
	}
	n := 0
	for _, sib := range ca.Super.State(tx).SubComplex {
		if sib != ca {
			n++
			fn(sib)
		}
	}
	return n, nil
}

// siblingsBase implements OP7/OP13 for base assemblies.
func siblingsBase(tx stm.Tx, s *core.Structure, r *rng.Rand, fn func(*core.BaseAssembly)) (int, error) {
	ba, ok := s.LookupBase(tx, s.RandomBaseID(r))
	if !ok {
		return 0, ErrFailed
	}
	n := 0
	for _, sib := range ba.Super.State(tx).SubBase {
		if sib != ba {
			n++
			fn(sib)
		}
	}
	return n, nil
}

func init() {
	// OP1 (Q1): 10 random atomic parts, read-only.
	register(&Op{
		Name: "OP1", Category: ShortOperation, ReadOnly: true,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			sink := 0
			return tenRandomAtomicParts(tx, s, r, func(p *core.AtomicPart) {
				readAtomicPart(tx, p, &sink)
			}), nil
		},
	})

	// OP2 (Q2): atomic parts with buildDate in [1990, 1999], read-only.
	register(&Op{
		Name: "OP2", Category: ShortOperation, ReadOnly: true,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			sink := 0
			return dateRangeParts(tx, s, 1990, 1999, func(p *core.AtomicPart) {
				readAtomicPart(tx, p, &sink)
			}), nil
		},
	})

	// OP3 (Q3): like OP2 over [1900, 1999].
	register(&Op{
		Name: "OP3", Category: ShortOperation, ReadOnly: true,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			sink := 0
			return dateRangeParts(tx, s, 1900, 1999, func(p *core.AtomicPart) {
				readAtomicPart(tx, p, &sink)
			}), nil
		},
	})

	// OP4 (T8): count 'I' occurrences in the manual.
	register(&Op{
		Name: "OP4", Category: ShortOperation, ReadOnly: true,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			return core.CountChar(s.Module.Man.Text(tx), 'I'), nil
		},
	})

	// OP5 (T9): 1 if the manual's first and last characters match.
	register(&Op{
		Name: "OP5", Category: ShortOperation, ReadOnly: true,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			text := s.Module.Man.Text(tx)
			if len(text) == 0 {
				return 0, ErrFailed
			}
			if text[0] == text[len(text)-1] {
				return 1, nil
			}
			return 0, nil
		},
	})

	// OP6: read-only operation on a random complex assembly's siblings.
	register(&Op{
		Name: "OP6", Category: ShortOperation, ReadOnly: true,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			sink := 0
			return siblingsComplex(tx, s, r, func(ca *core.ComplexAssembly) {
				sink += ca.BuildDate(tx)
			})
		},
	})

	// OP7: read-only operation on a random base assembly's siblings.
	register(&Op{
		Name: "OP7", Category: ShortOperation, ReadOnly: true,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			sink := 0
			return siblingsBase(tx, s, r, func(ba *core.BaseAssembly) {
				sink += ba.BuildDate(tx)
			})
		},
	})

	// OP8: read-only operation on a random base assembly's composite
	// parts.
	register(&Op{
		Name: "OP8", Category: ShortOperation, ReadOnly: true,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			ba, ok := s.LookupBase(tx, s.RandomBaseID(r))
			if !ok {
				return 0, ErrFailed
			}
			sink, n := 0, 0
			for _, cp := range ba.State(tx).Components {
				n++
				sink += cp.BuildDate(tx)
			}
			return n, nil
		},
	})

	// OP9: OP1 with a non-indexed update per part.
	register(&Op{
		Name: "OP9", Category: ShortOperation, ReadOnly: false,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			return tenRandomAtomicParts(tx, s, r, func(p *core.AtomicPart) {
				p.SwapXY(tx)
			}), nil
		},
	})

	// OP10: OP2 with a non-indexed update per part.
	register(&Op{
		Name: "OP10", Category: ShortOperation, ReadOnly: false,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			return dateRangeParts(tx, s, 1990, 1999, func(p *core.AtomicPart) {
				p.SwapXY(tx)
			}), nil
		},
	})

	// OP11: swap 'I' <-> 'i' in the manual; returns changes made.
	register(&Op{
		Name: "OP11", Category: ShortOperation, ReadOnly: false,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			man := s.Module.Man
			text, n := core.SwapCase(man.Text(tx))
			man.SetText(tx, text)
			return n, nil
		},
	})

	// OP12: OP6 with an update per sibling.
	register(&Op{
		Name: "OP12", Category: ShortOperation, ReadOnly: false,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			return siblingsComplex(tx, s, r, func(ca *core.ComplexAssembly) {
				ca.Mutate(tx, func(st *core.ComplexAssemblyState) {
					st.BuildDate = core.ToggleDate(st.BuildDate)
				})
			})
		},
	})

	// OP13: OP7 with an update per sibling.
	register(&Op{
		Name: "OP13", Category: ShortOperation, ReadOnly: false,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			return siblingsBase(tx, s, r, func(ba *core.BaseAssembly) {
				ba.Mutate(tx, func(st *core.BaseAssemblyState) {
					st.BuildDate = core.ToggleDate(st.BuildDate)
				})
			})
		},
	})

	// OP14: OP8 with an update per composite part.
	register(&Op{
		Name: "OP14", Category: ShortOperation, ReadOnly: false,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			ba, ok := s.LookupBase(tx, s.RandomBaseID(r))
			if !ok {
				return 0, ErrFailed
			}
			n := 0
			for _, cp := range ba.State(tx).Components {
				n++
				cp.Mutate(tx, func(st *core.CompositePartState) {
					st.BuildDate = core.ToggleDate(st.BuildDate)
				})
			}
			return n, nil
		},
	})

	// OP15: OP1 with an INDEXED buildDate update per part (maintains the
	// build-date index — the "large index" writer of §5).
	register(&Op{
		Name: "OP15", Category: ShortOperation, ReadOnly: false,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			return tenRandomAtomicParts(tx, s, r, func(p *core.AtomicPart) {
				s.ToggleAtomicDate(tx, p)
			}), nil
		},
	})
}
