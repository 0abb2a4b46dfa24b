package lib

import "testing"

func TestTestedOnly(t *testing.T) {
	if TestedOnly() != 1 {
		t.Fatal("TestedOnly")
	}
}
