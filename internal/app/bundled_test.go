package app_test

import (
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/topo"
	"repro/internal/workload"
)

// bundled resolves one of the bundled applications, spec and default mix.
func bundled(t *testing.T, name string) (*app.Spec, workload.Mix) {
	t.Helper()
	s, mix, err := topo.Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s, mix
}

// countStateful returns the number of stateless and stateful components.
func countStateful(s *app.Spec) (stateless, stateful int) {
	for _, c := range s.Components {
		if c.Stateful {
			stateful++
		} else {
			stateless++
		}
	}
	return stateless, stateful
}

func TestSocialNetworkShape(t *testing.T) {
	s, _ := bundled(t, "social")
	if got := len(s.Components); got != 29 {
		t.Errorf("social components = %d, want 29 (paper §5.1)", got)
	}
	if stateless, stateful := countStateful(s); stateless != 23 || stateful != 6 {
		t.Errorf("stateless/stateful = %d/%d, want 23/6", stateless, stateful)
	}
	if got := len(s.APIs); got != 11 {
		t.Errorf("social APIs = %d, want 11", got)
	}
	if got := len(s.ResourcePairs()); got != 76 {
		t.Errorf("resource pairs = %d, want 76 (paper §5.1)", got)
	}
}

func TestHotelReservationShape(t *testing.T) {
	s, _ := bundled(t, "hotel")
	if got := len(s.Components); got != 18 {
		t.Errorf("hotel components = %d, want 18", got)
	}
	if got := len(s.APIs); got != 4 {
		t.Errorf("hotel APIs = %d, want 4", got)
	}
	if got := len(s.ResourcePairs()); got != 54 {
		t.Errorf("resource pairs = %d, want 54 (paper §5.1)", got)
	}
}

func TestGroundTruthDependencies(t *testing.T) {
	s, _ := bundled(t, "social")
	compose, _ := s.API("/composePost")
	read, _ := s.API("/readTimeline")
	if !touches(compose, "ComposePostService") {
		t.Error("/composePost must touch ComposePostService")
	}
	if touches(read, "ComposePostService") {
		t.Error("/readTimeline must not touch ComposePostService (Figure 8)")
	}
	// /readTimeline reaches PostStorageMongoDB read path but must not
	// issue writes there (paper §5.2 program analysis).
	if !touches(read, "PostStorageMongoDB") {
		t.Error("/readTimeline must read PostStorageMongoDB")
	}
	for _, tpl := range read.Templates {
		assertNoWrites(t, tpl.Root, "PostStorageMongoDB")
	}
}

func TestMediaMicroservicesShape(t *testing.T) {
	s, _ := bundled(t, "media")
	if stateless, stateful := countStateful(s); stateless != 14 || stateful != 5 {
		t.Errorf("stateless/stateful = %d/%d, want 14/5", stateless, stateful)
	}
	if got := len(s.APIs); got != 6 {
		t.Errorf("APIs = %d, want 6", got)
	}
	// 19 components × 2 + 5 stateful × 3 = 53 estimation targets.
	if got := len(s.ResourcePairs()); got != 53 {
		t.Errorf("resource pairs = %d, want 53", got)
	}
}

func TestMediaGroundTruth(t *testing.T) {
	s, mix := bundled(t, "media")
	compose, _ := s.API("/composeReview")
	readPage, _ := s.API("/readMoviePage")
	if !touches(compose, "ReviewMongoDB") {
		t.Error("/composeReview must write ReviewMongoDB")
	}
	// Reading pages must never write the review store.
	for _, tpl := range readPage.Templates {
		assertNoWrites(t, tpl.Root, "ReviewMongoDB")
	}
	if len(mix) != len(s.APIs) {
		t.Errorf("default mix covers %d of %d APIs", len(mix), len(s.APIs))
	}
	for api := range mix {
		if _, ok := s.API(api); !ok {
			t.Errorf("mix references unknown API %s", api)
		}
	}
}

func assertNoWrites(t *testing.T, n *app.PathNode, component string) {
	t.Helper()
	if n.Component == component && (n.Cost.WriteOps > 0 || n.Cost.WriteKiB > 0 || n.Cost.DiskMiB > 0) {
		t.Errorf("unexpected write cost on %s", component)
	}
	for _, c := range n.Children {
		assertNoWrites(t, c, component)
	}
}

// touches reports whether any template of a can visit component: the
// ground truth the dependency tests check the bundled apps against.
func touches(a app.API, component string) bool {
	var rec func(n *app.PathNode) bool
	rec = func(n *app.PathNode) bool {
		return n.Component == component || slices.ContainsFunc(n.Children, rec)
	}
	return slices.ContainsFunc(a.Templates, func(t app.Template) bool { return rec(t.Root) })
}
