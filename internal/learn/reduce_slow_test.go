//go:build slow

package learn

import "repro/internal/bottom"

func init() {
	reduceOracleScale = 0.3
	reduceOracleStrategies = []bottom.Strategy{bottom.Naive, bottom.Random, bottom.Stratified}
}
