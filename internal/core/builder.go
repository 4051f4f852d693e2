package core

import (
	"fmt"

	"repro/internal/rng"
	"repro/stm"
)

// newStructure is what Build starts from: the indexes and the id pools,
// nothing in them.
func newStructure(p Params, space *stm.VarSpace) *Structure {
	s := &Structure{P: p, Space: space, Idx: newIndexes(space)}
	s.ids = named(stm.NewCellClone(space, IDState{NextComp: 1, NextBase: 1, NextComplex: 1}, cloneIDState), DomainStructureIdx)
	return s
}

// Build constructs the full STMBench7 data structure for the given
// parameters, deterministically from seed: the design library of
// NumCompParts composite parts (each with its document and atomic-part
// graph), the assembly tree with base assemblies linking random composite
// parts, the manual, and the six indexes of Table 1.
//
// Vars are allocated from space (use the target engine's VarSpace). The
// build itself runs through a pass-through transaction — construction
// happens before any concurrency, exactly like the Java benchmark's setup
// phase.
func Build(p Params, seed uint64, space *stm.VarSpace) (*Structure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(seed)
	s := newStructure(p, space)

	direct := stm.NewDirect()
	err := direct.Atomic(func(tx stm.Tx) error {
		// Design library.
		for i := 0; i < p.NumCompParts; i++ {
			id, ok := s.AllocCompID(tx)
			if !ok {
				return fmt.Errorf("core: composite-part id pool exhausted during build")
			}
			s.BuildCompositePart(tx, r, id)
		}

		// Manual and module.
		man := &Manual{
			ID:    1,
			Title: "Manual for module #1",
			text:  named(stm.NewCell(space, ManualText(1, p.ManualSize)), DomainManual),
		}
		s.Module = &Module{ID: 1, Man: man}

		// Assembly tree: root complex assembly at level NumAssmLevels,
		// complex assemblies down to level 2, base assemblies at level 1.
		rootID, _ := s.AllocComplexID(tx)
		root := s.BuildComplexAssembly(tx, r, rootID, p.NumAssmLevels, nil)
		s.Module.DesignRoot = root
		var expand func(ca *ComplexAssembly) error
		expand = func(ca *ComplexAssembly) error {
			for i := 0; i < p.NumAssmPerAssm; i++ {
				if ca.Lvl == 2 {
					id, ok := s.AllocBaseID(tx)
					if !ok {
						return fmt.Errorf("core: base-assembly id pool exhausted during build")
					}
					s.BuildBaseAssembly(tx, r, id, ca)
					continue
				}
				id, ok := s.AllocComplexID(tx)
				if !ok {
					return fmt.Errorf("core: complex-assembly id pool exhausted during build")
				}
				sub := s.BuildComplexAssembly(tx, r, id, ca.Lvl-1, ca)
				if err := expand(sub); err != nil {
					return err
				}
			}
			return nil
		}
		return expand(root)
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}
