package ops

import (
	"repro/internal/core"
	"repro/internal/rng"
	"repro/stm"
)

// Short traversals (Appendix B.2.2).

func init() {
	// ST1: random top-down path to one atomic part; returns x+y of the
	// part. Fails on a base assembly without composite parts.
	register(&Op{
		Name: "ST1", Category: ShortTraversal, ReadOnly: true,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			cp := descendToComposite(tx, s, r)
			if cp == nil {
				return 0, ErrFailed
			}
			p := cp.Parts[r.Intn(len(cp.Parts))]
			st := p.State(tx)
			return st.X + st.Y, nil
		},
	})

	// ST2: random top-down path to a document; counts 'I' characters.
	register(&Op{
		Name: "ST2", Category: ShortTraversal, ReadOnly: true,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			cp := descendToComposite(tx, s, r)
			if cp == nil {
				return 0, ErrFailed
			}
			return core.CountChar(cp.Doc.Text(tx), 'I'), nil
		},
	})

	// ST3 (T7 in OO7): bottom-up from a random atomic part to the root,
	// visiting each complex assembly at most once; returns the number of
	// complex assemblies visited. Fails when the id misses or the part's
	// composite is used by no base assembly.
	register(&Op{
		Name: "ST3", Category: ShortTraversal, ReadOnly: true,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			p, ok := s.LookupAtomic(tx, s.RandomAtomicID(r))
			if !ok {
				return 0, ErrFailed
			}
			bas := p.PartOf.State(tx).UsedIn
			if len(bas) == 0 {
				return 0, ErrFailed
			}
			sink := 0
			n := ascendantComplexAssemblies(bas, func(ca *core.ComplexAssembly) {
				sink += ca.BuildDate(tx)
			})
			return n, nil
		},
	})

	// ST4 (Q4 in OO7): 100 random document titles through the title index;
	// read-only operation on each base assembly that uses at least one of
	// the found documents' composite parts. Returns base assemblies
	// visited.
	register(&Op{
		Name: "ST4", Category: ShortTraversal, ReadOnly: true,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			seen := acquireScratch()
			defer seen.release()
			var title [64]byte // the title is built here and never leaves
			sink := 0
			for i := 0; i < 100; i++ {
				doc, ok := s.DocumentByTitle(tx, core.AppendDocumentTitle(title[:0], s.RandomCompID(r)))
				if !ok {
					continue
				}
				for _, ba := range doc.Part.State(tx).UsedIn {
					if seen.add(ba.ID) {
						sink += ba.BuildDate(tx)
					}
				}
			}
			return seen.count, nil
		},
	})

	// ST5 (Q5 in OO7): iterate the base-assembly id index; count base
	// assemblies whose buildDate is lower than that of one of their
	// composite parts.
	register(&Op{
		Name: "ST5", Category: ShortTraversal, ReadOnly: true,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			count, sink := 0, 0
			s.Idx.BaseByID.Ascend(tx, func(_ uint64, ba *core.BaseAssembly) bool {
				st := ba.State(tx)
				for _, cp := range st.Components {
					if st.BuildDate < cp.BuildDate(tx) {
						count++
						sink += st.BuildDate
						break
					}
				}
				return true
			})
			return count, nil
		},
	})

	// ST6: ST1 with a non-indexed update (swap x/y) on the visited part.
	register(&Op{
		Name: "ST6", Category: ShortTraversal, ReadOnly: false,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			cp := descendToComposite(tx, s, r)
			if cp == nil {
				return 0, ErrFailed
			}
			p := cp.Parts[r.Intn(len(cp.Parts))]
			p.SwapXY(tx)
			st := p.State(tx)
			return st.X + st.Y, nil
		},
	})

	// ST7: ST2 with a text update (swap "I am" <-> "This is"); returns the
	// number of substrings replaced.
	register(&Op{
		Name: "ST7", Category: ShortTraversal, ReadOnly: false,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			cp := descendToComposite(tx, s, r)
			if cp == nil {
				return 0, ErrFailed
			}
			nt, n := core.SwapIAm(cp.Doc.Text(tx))
			cp.Doc.SetText(tx, nt)
			return n, nil
		},
	})

	// ST8: ST3 updating each visited complex assembly's (non-indexed)
	// buildDate.
	register(&Op{
		Name: "ST8", Category: ShortTraversal, ReadOnly: false,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			p, ok := s.LookupAtomic(tx, s.RandomAtomicID(r))
			if !ok {
				return 0, ErrFailed
			}
			bas := p.PartOf.State(tx).UsedIn
			if len(bas) == 0 {
				return 0, ErrFailed
			}
			n := ascendantComplexAssemblies(bas, func(ca *core.ComplexAssembly) {
				ca.Mutate(tx, func(st *core.ComplexAssemblyState) {
					st.BuildDate = core.ToggleDate(st.BuildDate)
				})
			})
			return n, nil
		},
	})

	// ST9: like ST1 but performs a depth-first search over ALL atomic
	// parts of the chosen composite part; returns parts visited.
	register(&Op{
		Name: "ST9", Category: ShortTraversal, ReadOnly: true,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			cp := descendToComposite(tx, s, r)
			if cp == nil {
				return 0, ErrFailed
			}
			sink := 0
			n := graphDFS(cp.RootPart, func(p *core.AtomicPart) {
				readAtomicPart(tx, p, &sink)
			})
			return n, nil
		},
	})

	// ST10: ST9 with a non-indexed update on every visited part.
	register(&Op{
		Name: "ST10", Category: ShortTraversal, ReadOnly: false,
		Run: func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
			cp := descendToComposite(tx, s, r)
			if cp == nil {
				return 0, ErrFailed
			}
			n := graphDFS(cp.RootPart, func(p *core.AtomicPart) {
				p.SwapXY(tx)
			})
			return n, nil
		},
	})
}
