package app

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestBundledSpecsValidate: the one Go-coded spec is deployable. The bundled
// applications are topology documents, validated by topo.TestBundledApps.
func TestBundledSpecsValidate(t *testing.T) {
	if err := Toy().Validate(); err != nil {
		t.Error(err)
	}
}

func TestResourceMetadata(t *testing.T) {
	if CPU.StatefulOnly() || Memory.StatefulOnly() {
		t.Error("CPU/Memory apply to all components")
	}
	for _, r := range []Resource{WriteIOps, WriteTput, DiskUsage} {
		if !r.StatefulOnly() {
			t.Errorf("%s must be stateful-only", r)
		}
	}
	if CPU.String() != "cpu" || CPU.Unit() != "mcores" {
		t.Error("CPU metadata wrong")
	}
	if Resource(99).String() == "" || Resource(99).Unit() != "?" {
		t.Error("unknown resource metadata")
	}
}

func TestCostArithmetic(t *testing.T) {
	a := Cost{CPUms: 1, MemMiB: 2, CacheMiB: 3, WriteOps: 4, WriteKiB: 5, DiskMiB: 6}
	b := a.Scale(2)
	if b.CPUms != 2 || b.DiskMiB != 12 {
		t.Errorf("Scale = %+v", b)
	}
	c := a.Add(b)
	if c.CPUms != 3 || c.WriteKiB != 15 {
		t.Errorf("Add = %+v", c)
	}
}

// Property: Cost.Scale distributes over Add.
func TestCostScaleDistributesProperty(t *testing.T) {
	f := func(x, y float64, f8 uint8) bool {
		if !finite(x) || !finite(y) {
			return true
		}
		fac := float64(f8) / 16
		a := Cost{CPUms: x, WriteOps: y}
		b := Cost{CPUms: y, DiskMiB: x}
		lhs := a.Add(b).Scale(fac)
		rhs := a.Scale(fac).Add(b.Scale(fac))
		return lhs == rhs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func finite(x float64) bool { return x == x && x < 1e300 && x > -1e300 }

func TestValidateCatchesErrors(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Name:       "t",
			Components: []Component{{Name: "A"}, {Name: "DB", Stateful: true}},
			APIs: []API{{
				Name:      "/x",
				Templates: []Template{{Prob: 1, Root: Node("A", "op", Cost{})}},
			}},
		}
	}

	s := base()
	s.Components = append(s.Components, Component{Name: "A"})
	if err := s.Validate(); err == nil {
		t.Error("duplicate component must fail validation")
	}

	s = base()
	s.APIs = append(s.APIs, s.APIs[0])
	if err := s.Validate(); err == nil {
		t.Error("duplicate API must fail validation")
	}

	s = base()
	s.APIs[0].Templates[0].Prob = 0.5
	if err := s.Validate(); err == nil {
		t.Error("probabilities not summing to 1 must fail")
	}

	s = base()
	s.APIs[0].Templates[0].Root = Node("Ghost", "op", Cost{})
	if err := s.Validate(); err == nil {
		t.Error("undeclared component must fail")
	}

	s = base()
	s.APIs[0].Templates[0].Root = Node("A", "op", Cost{WriteOps: 1})
	if err := s.Validate(); err == nil {
		t.Error("storage cost on stateless component must fail")
	}

	s = base()
	s.APIs[0].Templates = nil
	if err := s.Validate(); err == nil {
		t.Error("API without templates must fail")
	}

	s = base()
	s.APIs[0].Templates[0].Root = nil
	if err := s.Validate(); err == nil {
		t.Error("nil template root must fail")
	}

	s = base()
	s.APIs[0].Templates[0].Prob = -1
	s.APIs[0].Templates = append(s.APIs[0].Templates, Template{Prob: 2, Root: Node("A", "op", Cost{})})
	if err := s.Validate(); err == nil {
		t.Error("negative probability must fail")
	}

	s = base()
	s.Components[0].Name = ""
	if err := s.Validate(); err == nil {
		t.Error("empty component name must fail")
	}

	s = base()
	s.Components[0].BaseCPU = -3
	if err := s.Validate(); err == nil {
		t.Error("negative base CPU must fail")
	}

	s = base()
	s.Components[1].CacheDecay = 1.5
	if err := s.Validate(); err == nil {
		t.Error("cache decay above 1 must fail")
	}

	s = base()
	s.APIs[0].PayloadCV = -0.1
	if err := s.Validate(); err == nil {
		t.Error("negative payload CV must fail")
	}
}

// TestValidateNamesOffender pins that errors in large specs are actionable:
// they carry the offending API name and template index (and the node for
// cost errors), per the topology-as-data error contract.
func TestValidateNamesOffender(t *testing.T) {
	s := &Spec{
		Name:       "t",
		Components: []Component{{Name: "A"}, {Name: "DB", Stateful: true}},
		APIs: []API{
			{Name: "/ok", Templates: []Template{{Prob: 1, Root: Node("A", "op", Cost{})}}},
			{Name: "/bad", Templates: []Template{
				{Prob: 0.5, Root: Node("A", "op", Cost{})},
				{Prob: 0.5, Root: Node("A", "op", Cost{},
					Node("DB", "insert", Cost{CPUms: -4}))},
			}},
		},
	}
	err := s.Validate()
	if err == nil {
		t.Fatal("negative cost must fail validation")
	}
	for _, want := range []string{"/bad", "template 1", "DB/insert", "cpu_ms"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}

	s.APIs[1].Templates[1].Root.Children = nil
	s.APIs[1].Templates[1].Prob = 0.2
	err = s.Validate()
	if err == nil || !strings.Contains(err.Error(), "/bad") {
		t.Errorf("probability-sum error %q does not name the API", err)
	}
}

func TestSpecAccessors(t *testing.T) {
	s := Toy()
	if _, ok := s.Component("DB"); !ok {
		t.Error("Component(DB) missing")
	}
	if _, ok := s.Component("nope"); ok {
		t.Error("unknown component resolved")
	}
	if _, ok := s.API("/read"); !ok {
		t.Error("API(/read) missing")
	}
	if _, ok := s.API("/nope"); ok {
		t.Error("unknown API resolved")
	}
	p := Pair{Component: "DB", Resource: DiskUsage}
	if p.String() != "DB/disk_usage" {
		t.Errorf("Pair.String = %q", p.String())
	}
}
