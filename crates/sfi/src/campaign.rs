//! Fault-injection campaigns: enumerate, sample, and apply fault plans
//! over a module.

use crate::{operators, FaultClass, InjectedFault, Site};
use nfi_pylite::Module;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// One planned injection: an operator applied at a site.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Operator mnemonic.
    pub operator: &'static str,
    /// Fault class.
    pub class: FaultClass,
    /// Target site.
    pub site: Site,
}

/// Summary statistics of a campaign enumeration.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Plans per operator mnemonic.
    pub per_operator: BTreeMap<&'static str, usize>,
    /// Plans per fault class key.
    pub per_class: BTreeMap<&'static str, usize>,
    /// Total number of plans.
    pub total: usize,
}

/// A fault-injection campaign over one module.
///
/// # Examples
///
/// ```
/// let module = nfi_pylite::parse("def f(x):\n    log(x)\n    return x + 1\n")?;
/// let campaign = nfi_sfi::Campaign::full(&module);
/// assert!(campaign.plans().len() >= 2);
/// let fault = campaign.apply(&campaign.plans()[0]).expect("applies");
/// assert!(!fault.description.is_empty());
/// # Ok::<(), nfi_pylite::PyliteError>(())
/// ```
pub struct Campaign {
    module: Module,
    plans: Vec<FaultPlan>,
}

impl Campaign {
    /// Enumerates every (operator, site) pair using the full registry.
    pub fn full(module: &Module) -> Self {
        Self::with_operators(module, &operators::registry())
    }

    /// Enumerates plans restricted to the conventional (predefined-model)
    /// operator subset — the baseline tool of the comparative analysis.
    pub fn conventional(module: &Module) -> Self {
        let names = crate::conventional_operator_names();
        let ops: Vec<_> = operators::registry()
            .into_iter()
            .filter(|op| names.contains(&op.name()))
            .collect();
        Self::with_operators(module, &ops)
    }

    /// Enumerates plans for an explicit operator set.
    pub fn with_operators(module: &Module, ops: &[Box<dyn crate::FaultOperator>]) -> Self {
        let mut plans = Vec::new();
        for op in ops {
            for site in op.find_sites(module) {
                plans.push(FaultPlan {
                    operator: op.name(),
                    class: op.class(),
                    site,
                });
            }
        }
        Campaign {
            module: module.clone(),
            plans,
        }
    }

    /// All enumerated plans.
    pub fn plans(&self) -> &[FaultPlan] {
        &self.plans
    }

    /// The module the campaign was built from.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// A seeded random sample of at most `n` plans (without
    /// replacement), as borrowed views into the enumeration — no plan
    /// is ever cloned. Callers that need owned plans can clone
    /// individually; callers that execute a sample should pass
    /// [`Campaign::sample_indices`] to [`crate::CampaignSpec::subset`].
    pub fn sample(&self, n: usize, seed: u64) -> Vec<&FaultPlan> {
        self.sample_indices(n, seed)
            .into_iter()
            .map(|i| &self.plans[i])
            .collect()
    }

    /// Indices of a seeded random sample of at most `n` plans (without
    /// replacement), avoiding any plan clones.
    pub fn sample_indices(&self, n: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut indices: Vec<usize> = (0..self.plans.len()).collect();
        indices.shuffle(&mut rng);
        indices.truncate(n);
        indices
    }

    /// Applies a plan, producing the mutated module plus provenance.
    ///
    /// Returns `None` when the plan is stale (site vanished).
    pub fn apply(&self, plan: &FaultPlan) -> Option<InjectedFault> {
        apply_plan(&self.module, plan)
    }

    /// Aggregate statistics over the enumerated plans.
    pub fn report(&self) -> CampaignReport {
        let mut report = CampaignReport::default();
        for plan in &self.plans {
            *report.per_operator.entry(plan.operator).or_insert(0) += 1;
            *report.per_class.entry(plan.class.key()).or_insert(0) += 1;
            report.total += 1;
        }
        report
    }
}

/// Applies a plan against any module, producing the mutated module plus
/// provenance — [`Campaign::apply`] without the campaign. This is the
/// primitive the plan-IR executor and the mutant cache build on: a plan
/// decoded from a [`crate::plan::CampaignSpec`] can be applied to the
/// re-parsed module directly.
///
/// Returns `None` when the operator is unknown or the site is stale.
pub fn apply_plan(module: &Module, plan: &FaultPlan) -> Option<InjectedFault> {
    let op = operators::by_name(plan.operator)?;
    let mutated = op.apply(module, &plan.site)?;
    Some(InjectedFault {
        operator: plan.operator,
        class: plan.class,
        site: plan.site.clone(),
        module: mutated,
        description: op.describe(&plan.site),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfi_pylite::parse;

    fn corpus_like() -> Module {
        parse(
            "m = lock()\ntotal = 0\ndef add(v):\n    global total\n    m.acquire()\n    total = total + v\n    m.release()\n    return total\ndef test_add():\n    assert add(1) == 1\n",
        )
        .unwrap()
    }

    #[test]
    fn full_campaign_enumerates_multiple_classes() {
        let c = Campaign::full(&corpus_like());
        let report = c.report();
        assert!(report.total >= 5, "report: {report:?}");
        assert!(report.per_class.contains_key("concurrency"));
        assert!(report.per_class.contains_key("omission"));
    }

    #[test]
    fn conventional_campaign_has_no_concurrency_plans() {
        let c = Campaign::conventional(&corpus_like());
        let report = c.report();
        assert!(report.total > 0);
        assert!(!report.per_class.contains_key("concurrency"));
        assert!(!report.per_class.contains_key("timing"));
    }

    #[test]
    fn every_plan_applies_cleanly() {
        let c = Campaign::full(&corpus_like());
        for plan in c.plans() {
            let fault = c
                .apply(plan)
                .unwrap_or_else(|| panic!("stale plan {plan:?}"));
            // Mutated module must still print and reparse.
            let printed = nfi_pylite::print_module(&fault.module);
            parse(&printed).unwrap_or_else(|e| panic!("{}: {e}\n{printed}", plan.operator));
        }
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let c = Campaign::full(&corpus_like());
        let a = c.sample(3, 42);
        let b = c.sample(3, 42);
        assert_eq!(a.len().min(3), a.len());
        assert_eq!(
            a.iter().map(|p| p.operator).collect::<Vec<_>>(),
            b.iter().map(|p| p.operator).collect::<Vec<_>>()
        );
        let d = c.sample(3, 43);
        let same = a
            .iter()
            .zip(d.iter())
            .all(|(x, y)| x.operator == y.operator && x.site == y.site);
        // Different seeds *may* coincide for tiny plan sets, but the
        // campaign here is large enough that they should not.
        assert!(!same || c.plans().len() <= 3);
    }

    #[test]
    fn report_counts_sum_to_total() {
        let c = Campaign::full(&corpus_like());
        let report = c.report();
        let by_op: usize = report.per_operator.values().sum();
        let by_class: usize = report.per_class.values().sum();
        assert_eq!(by_op, report.total);
        assert_eq!(by_class, report.total);
    }
}
