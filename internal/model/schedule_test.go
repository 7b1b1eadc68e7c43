package model

import "testing"

func testSchedule() *Schedule {
	s := NewSchedule()
	s.Assign("r1", "fw", 0)
	s.Assign("r1", "nat", 0)
	s.Assign("r2", "fw", 1)
	s.Assign("r3", "ids", 2)
	s.Assign("r3", "fw", 0)
	s.Assign("r3", "nat", 0)
	return s
}

func TestScheduleAssignAndInstance(t *testing.T) {
	s := NewSchedule()
	s.Assign("r1", "fw", 1)
	if k, ok := s.Instance("r1", "fw"); !ok || k != 1 {
		t.Errorf("Instance(r1,fw) = %d, %v", k, ok)
	}
	if _, ok := s.Instance("r1", "nat"); ok {
		t.Error("Instance found unassigned vnf")
	}
	if _, ok := s.Instance("rX", "fw"); ok {
		t.Error("Instance found unknown request")
	}
	s.Assign("r1", "fw", 0) // reassignment replaces
	if k, _ := s.Instance("r1", "fw"); k != 0 {
		t.Errorf("reassignment failed: %d", k)
	}
}

func TestScheduleValidate(t *testing.T) {
	p := testProblem()
	if err := testSchedule().Validate(p); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}

	t.Run("missing assignment", func(t *testing.T) {
		s := testSchedule()
		delete(s.InstanceOf["r1"], "nat")
		checkErr(t, s.Validate(p), "unassigned")
	})
	t.Run("instance out of range", func(t *testing.T) {
		s := testSchedule()
		s.Assign("r1", "fw", 2) // fw has M_f = 2 → valid k ∈ {0,1}
		checkErr(t, s.Validate(p), "outside")
	})
	t.Run("negative instance", func(t *testing.T) {
		s := testSchedule()
		s.Assign("r1", "fw", -1)
		checkErr(t, s.Validate(p), "outside")
	})
	t.Run("vnf outside chain", func(t *testing.T) {
		s := testSchedule()
		s.Assign("r2", "nat", 0) // r2's chain is only fw
		checkErr(t, s.Validate(p), "outside its chain")
	})
	t.Run("unknown request", func(t *testing.T) {
		s := testSchedule()
		s.Assign("ghost", "fw", 0)
		checkErr(t, s.Validate(p), "unknown request")
	})
}

func TestScheduleValidatePartial(t *testing.T) {
	p := testProblem()

	t.Run("full schedule passes", func(t *testing.T) {
		if err := testSchedule().ValidatePartial(p); err != nil {
			t.Errorf("ValidatePartial: %v", err)
		}
	})
	t.Run("absent request allowed", func(t *testing.T) {
		s := testSchedule()
		delete(s.InstanceOf, "r2")
		if err := s.ValidatePartial(p); err != nil {
			t.Errorf("ValidatePartial rejected absent request: %v", err)
		}
		// But the full Validate still rejects it.
		if err := s.Validate(p); err == nil {
			t.Error("Validate accepted partial schedule")
		}
	})
	t.Run("partially assigned request rejected", func(t *testing.T) {
		s := testSchedule()
		delete(s.InstanceOf["r1"], "nat")
		checkErr(t, s.ValidatePartial(p), "partially assigned")
	})
	t.Run("out of range instance rejected", func(t *testing.T) {
		s := testSchedule()
		s.Assign("r1", "fw", 5)
		checkErr(t, s.ValidatePartial(p), "outside")
	})
	t.Run("vnf outside chain rejected", func(t *testing.T) {
		s := testSchedule()
		s.Assign("r2", "nat", 0)
		checkErr(t, s.ValidatePartial(p), "outside its chain")
	})
	t.Run("unknown request rejected", func(t *testing.T) {
		s := testSchedule()
		s.Assign("ghost", "fw", 0)
		checkErr(t, s.ValidatePartial(p), "unknown request")
	})
	t.Run("unknown request in place of an absent one rejected", func(t *testing.T) {
		s := testSchedule()
		delete(s.InstanceOf, "r2")
		s.Assign("ghost", "fw", 0)
		checkErr(t, s.ValidatePartial(p), "unknown request")
	})
	t.Run("empty row of a known request allowed", func(t *testing.T) {
		s := testSchedule()
		s.InstanceOf["r2"] = map[VNFID]int{}
		if err := s.ValidatePartial(p); err != nil {
			t.Errorf("ValidatePartial: %v", err)
		}
	})
	t.Run("no allocation", func(t *testing.T) {
		// Simulators validate their schedule on every Reset.
		s := testSchedule()
		if n := testing.AllocsPerRun(100, func() { _ = s.ValidatePartial(p) }); n != 0 {
			t.Errorf("ValidatePartial allocates %v times", n)
		}
	})
}

func TestScheduleInstanceLoads(t *testing.T) {
	p := testProblem()
	s := testSchedule()
	// fw instances: k=0 gets r1 (10/1) + r3 (5/0.5=10) = 20; k=1 gets r2 (20/0.98).
	loads := s.InstanceLoads(p, "fw")
	if len(loads) != 2 {
		t.Fatalf("InstanceLoads(fw) len = %d, want 2", len(loads))
	}
	if !almostEqual(loads[0], 20, 1e-9) {
		t.Errorf("loads[0] = %v, want 20", loads[0])
	}
	if !almostEqual(loads[1], 20/0.98, 1e-9) {
		t.Errorf("loads[1] = %v, want %v", loads[1], 20/0.98)
	}
	if got := s.InstanceLoads(p, "ghost"); got != nil {
		t.Errorf("InstanceLoads(ghost) = %v, want nil", got)
	}
}

func TestScheduleRawInstanceLoads(t *testing.T) {
	p := testProblem()
	s := testSchedule()
	loads := s.RawInstanceLoads(p, "fw")
	if !almostEqual(loads[0], 15, 1e-9) { // r1=10 + r3=5, no inflation
		t.Errorf("raw loads[0] = %v, want 15", loads[0])
	}
	if !almostEqual(loads[1], 20, 1e-9) {
		t.Errorf("raw loads[1] = %v, want 20", loads[1])
	}
}

func TestScheduleClone(t *testing.T) {
	s := testSchedule()
	c := s.Clone()
	c.Assign("r1", "fw", 1)
	if k, _ := s.Instance("r1", "fw"); k != 0 {
		t.Error("Clone shares maps with original")
	}
}
