package lib

import "testing"

func TestTestedOnly(t *testing.T) {
	if TestedOnly() != 1 {
		t.Fatal("TestedOnly")
	}
}

func TestOptions(t *testing.T) {
	if (Options{TestSet: 1}).TestSet != 1 {
		t.Fatal("TestSet")
	}
}
