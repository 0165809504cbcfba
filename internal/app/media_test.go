package app

import "testing"

func TestMediaMicroservicesShape(t *testing.T) {
	s := MediaMicroservices()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	stateless, stateful := 0, 0
	for _, c := range s.Components {
		if c.Stateful {
			stateful++
		} else {
			stateless++
		}
	}
	if stateless != 14 || stateful != 5 {
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
	s := MediaMicroservices()
	compose, _ := s.API("/composeReview")
	readPage, _ := s.API("/readMoviePage")
	if !touches(compose, "ReviewMongoDB") {
		t.Error("/composeReview must write ReviewMongoDB")
	}
	// Reading pages must never write the review store.
	for _, tpl := range readPage.Templates {
		assertNoWrites(t, tpl.Root, "ReviewMongoDB")
	}
	mix := MediaDefaultMix()
	if len(mix) != len(s.APIs) {
		t.Errorf("default mix covers %d of %d APIs", len(mix), len(s.APIs))
	}
	for api := range mix {
		if _, ok := s.API(api); !ok {
			t.Errorf("mix references unknown API %s", api)
		}
	}
}
