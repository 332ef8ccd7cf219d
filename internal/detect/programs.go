package detect

// Program is one checked program: Run executes it once under a fresh
// registry and returns the violations it recorded, and Expects is
// "clean" for a correctly guarded program or "racy" for a seeded bug.
type Program struct {
	Name    string
	Expects string
	Run     func() []Violation
}

// Check runs p up to runs times, stopping at the first run that records
// a violation, since a race may need schedule luck to appear. It returns
// that run's violations, nil if every run was clean, and whether the
// result is the one p expects.
func (p Program) Check(runs int) (seen []Violation, ok bool) {
	for i := 0; i < runs && len(seen) == 0; i++ {
		seen = p.Run()
	}
	return seen, (p.Expects == "clean") == (len(seen) == 0)
}

// Programs returns the guard-condition programs: section 6's counter,
// lock and unguarded programs, and the writer/readers broadcast of
// section 5.3 with and without the readers' Checks. The lock program is
// clean, since a lock orders the accesses, yet nondeterministic, which
// this checker does not see; internal/explore proves that half.
func Programs() []Program {
	return []Program{
		{"counter chain (section 6)", "clean", func() []Violation {
			return section6(1)
		}},
		{"lock region (section 6)", "clean", func() []Violation {
			reg := NewRegistry()
			root := reg.Root()
			x := NewVar(root, "x", 3)
			var m Mutex
			root.Go(
				func(th *Thread) { m.Lock(th); x.Write(th, x.Read(th)+1); m.Unlock(th) },
				func(th *Thread) { m.Lock(th); x.Write(th, x.Read(th)*2); m.Unlock(th) },
			)
			return reg.Violations()
		}},
		{"unguarded update (section 6)", "racy", func() []Violation {
			return section6(0)
		}},
		{"broadcast, all Checks present", "clean", func() []Violation {
			return broadcast(false)
		}},
		{"broadcast, reader Check removed", "racy", func() []Violation {
			return broadcast(true)
		}},
	}
}

// section6 is section 6's counter program, x = x+1 then x = x*2, with
// the second thread's Check at level second: 1 orders the two updates,
// and 0 leaves them unguarded.
func section6(second uint64) []Violation {
	reg := NewRegistry()
	root := reg.Root()
	x := NewVar(root, "x", 3)
	c := NewCounter(root)
	root.Go(
		func(th *Thread) { c.Check(th, 0); x.Write(th, x.Read(th)+1); c.Increment(th, 1) },
		func(th *Thread) { c.Check(th, second); x.Write(th, x.Read(th)*2); c.Increment(th, 1) },
	)
	return reg.Violations()
}

// broadcast is one writer filling data[0..n) and incrementing after
// each element, and two readers each Checking level i+1 before reading
// data[i]; dropCheck removes the readers' Checks.
func broadcast(dropCheck bool) []Violation {
	const n = 10
	reg := NewRegistry()
	root := reg.Root()
	data := NewSlice[int](root, "data", n)
	c := NewCounter(root)
	writer := func(th *Thread) {
		for i := 0; i < n; i++ {
			data.Write(th, i, i)
			c.Increment(th, 1)
		}
	}
	reader := func(th *Thread) {
		for i := 0; i < n; i++ {
			if !dropCheck {
				c.Check(th, uint64(i)+1)
			}
			data.Read(th, i)
		}
	}
	root.Go(writer, reader, reader)
	return reg.Violations()
}
