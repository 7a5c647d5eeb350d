package main

import (
	"strings"
	"testing"

	"rsr/internal/experiments"
)

// TestUnknownCommandNamesEveryCommand: the hint an unknown command gets lists
// every command rsr runs, top, frontier and doctor included, and none it no
// longer has (report, sweep).
func TestUnknownCommandNamesEveryCommand(t *testing.T) {
	err := dispatch("nope", experiments.DefaultConfig(), "twolf", "R$BP (20%)", "", "text", false)
	if err == nil {
		t.Fatal("an unknown command was accepted")
	}
	msg := err.Error()
	for _, cmd := range strings.Fields("list table1 table2 fig5 fig6 fig7 fig8 fig9 appendix frontier all run regimens strategies top doctor") {
		if !strings.Contains(msg, " "+cmd+",") && !strings.Contains(msg, " "+cmd+")") {
			t.Errorf("hint does not name %q: %s", cmd, msg)
		}
	}
	for _, gone := range []string{"report", "sweep"} {
		if strings.Contains(msg, gone) {
			t.Errorf("hint names the deleted %s command: %s", gone, msg)
		}
	}
}
