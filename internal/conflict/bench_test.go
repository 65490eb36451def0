package conflict

import (
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/spec"
)

// Grant-check ladder: raw guard-decision throughput of the unmemoised
// exact search against the cascade, on pending sets that defeat the cheap
// tiers. The worker ladder is -cpu:
//
//	go test -run '^$' -bench GrantCheck -cpu 1,4,16 ./internal/conflict

// grantScenario is one fixed grant-check decision problem.
type grantScenario struct {
	base   spec.State
	cand   spec.Call
	others [][]spec.Call
}

// grantScenarios builds decision problems that escalate past the table and
// summary tiers: the candidate is a deposit and some other transaction has
// a recorded insufficient_funds result, which the escrow summary must
// conservatively refuse (a deposit could flip a recorded failure) but the
// exhaustive search grants (the failed amount is far too large for the
// deposit to cover). Granting requires exploring every subset arrangement,
// so each fresh decision pays the full search; only the memo cache makes
// the re-check cheap.
func grantScenarios() []grantScenario {
	scenarios := make([]grantScenario, 0, 8)
	for i := int64(1); i <= 8; i++ {
		others := [][]spec.Call{
			{failedWithdraw(1_000_000_000)},
			{withdraw(1)}, {withdraw(2)}, {withdraw(3), withdraw(4)}, {withdraw(5)}, {withdraw(6)}, {deposit(2), withdraw(7)}, {withdraw(8)},
		}
		scenarios = append(scenarios, grantScenario{
			base:   spec.State(adts.AccountState(1000)),
			cand:   deposit(i),
			others: others,
		})
	}
	return scenarios
}

// BenchmarkGrantCheck: one op is one grant check. Each sub-benchmark run
// builds a fresh guard, so the cascade's cache starts cold and must earn
// its hits within the run.
func BenchmarkGrantCheck(b *testing.B) {
	scenarios := grantScenarios()
	for _, name := range []string{"exact", "cascade"} {
		b.Run(name, func(b *testing.B) {
			allowed := func(base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call) (bool, error) {
				return ExactSearch(base, mine, cand, others, 0, 0), nil
			}
			if name == "cascade" {
				allowed = ForType(adts.Account()).Allowed
			}
			b.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					s := scenarios[i%len(scenarios)]
					ok, err := allowed(s.base, nil, s.cand, s.others)
					if err != nil || !ok {
						b.Errorf("grant check = %v, %v; want granted", ok, err)
						return
					}
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "checks/s")
		})
	}
}
