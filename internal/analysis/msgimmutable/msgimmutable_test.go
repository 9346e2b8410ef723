package msgimmutable_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/msgimmutable"
)

func TestMsgImmutable(t *testing.T) {
	analysistest.Run(t, msgimmutable.Analyzer, "msgimmutable/bad", "msgimmutable/good")
}
