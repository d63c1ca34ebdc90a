package protocol

import (
	"testing"

	"scalablebulk/internal/event"
)

func TestEffectiveDeadline(t *testing.T) {
	if got := EffectiveDeadline(0); got != DefaultCommitDeadline {
		t.Errorf("EffectiveDeadline(0) = %d, want the default %d", got, DefaultCommitDeadline)
	}
	if got := EffectiveDeadline(123); got != event.Time(123) {
		t.Errorf("EffectiveDeadline(123) = %d", got)
	}
	if got := EffectiveDeadline(WatchdogDisabled); got != WatchdogDisabled {
		t.Errorf("EffectiveDeadline(WatchdogDisabled) = %d, want it passed through", got)
	}
}
