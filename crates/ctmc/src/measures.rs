//! Dependability measures over labelled CTMCs.
//!
//! Arcade labels system-down states with bit 0. Every measure is the
//! probability mass of the down states under a distribution one of the
//! solve entries produces, read back with [`state_mass`]:
//!
//! * steady-state unavailability — the mass under
//!   [`crate::steady::steady_state_with`];
//! * point unavailability `1 − A(t)` — the mass under
//!   [`crate::transient::transient_many_from_ctx`] from the initial
//!   distribution;
//! * unreliability `1 − R(t)` — the same solve on the chain with the down
//!   states made absorbing ([`crate::Ctmc::make_absorbing`]);
//! * MTTF — [`crate::absorbing::mean_time_to_absorption_with`] into the
//!   down states (`∞` when there are none).
//!
//! `arcade::query::Session` composes these once per configuration and
//! memoizes the steady vector, the down list, the absorbing chain and the
//! MTTF.

/// Probability mass of `pi` on `targets`, clamped to `[0, 1]` (sums of a
/// numerically computed distribution can stray by rounding). Shared by
/// every measure layer so clamping policy lives in one place.
pub fn state_mass(targets: &[u32], pi: &[f64]) -> f64 {
    targets
        .iter()
        .map(|&s| pi[s as usize])
        .sum::<f64>()
        .clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absorbing::mean_time_to_absorption_with;
    use crate::steady::steady_state_with;
    use crate::transient::transient_many_from_ctx;
    use crate::{Ctmc, MeasureContext, SolverOptions, TransientOptions};

    fn machine(l: f64, m: f64) -> Ctmc {
        Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap()
    }

    fn down(c: &Ctmc) -> Vec<u32> {
        c.states_with_label(1).collect()
    }

    fn steady_down(c: &Ctmc) -> f64 {
        state_mass(&down(c), &steady_state_with(c, &SolverOptions::default()))
    }

    /// Down mass at `t`, from the initial state of `c`.
    fn down_at(c: &Ctmc, targets: &[u32], t: f64) -> f64 {
        let opts = TransientOptions::default();
        let pi = transient_many_from_ctx(
            c,
            &c.initial_distribution(),
            &[t],
            &opts,
            &MeasureContext::new(),
        );
        state_mass(targets, &pi[0])
    }

    fn unreliability(c: &Ctmc, t: f64) -> f64 {
        let targets = down(c);
        down_at(&c.make_absorbing(targets.iter().copied()), &targets, t)
    }

    fn mttf(c: &Ctmc) -> f64 {
        mean_time_to_absorption_with(c, &down(c), &SolverOptions::default())
    }

    #[test]
    fn steady_unavailability_closed_form() {
        let c = machine(0.01, 1.0);
        assert!((steady_down(&c) - 0.01 / 1.01).abs() < 1e-12);
    }

    #[test]
    fn reliability_ignores_repair() {
        let c = machine(0.1, 100.0);
        // first failure is exp(0.1) regardless of the huge repair rate
        let r = 1.0 - unreliability(&c, 5.0);
        assert!((r - (-0.5f64).exp()).abs() < 1e-10);
    }

    #[test]
    fn point_availability_interpolates() {
        let c = machine(0.5, 0.5);
        let a0 = 1.0 - down_at(&c, &down(&c), 0.0);
        let ainf = 1.0 - down_at(&c, &down(&c), 1e3);
        assert!((a0 - 1.0).abs() < 1e-12);
        assert!((ainf - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mttf_of_machine() {
        let c = machine(0.25, 1.0);
        assert!((mttf(&c) - 4.0).abs() < 1e-10);
    }

    #[test]
    fn no_down_states_is_perfect() {
        let c = Ctmc::new(vec![vec![(1.0, 1)], vec![(1.0, 0)]], vec![0, 0], 0).unwrap();
        assert_eq!(unreliability(&c, 10.0), 0.0);
        assert_eq!(mttf(&c), f64::INFINITY);
        assert_eq!(steady_down(&c), 0.0);
    }

    #[test]
    fn mass_is_clamped_to_a_probability() {
        assert_eq!(state_mass(&[0, 1], &[0.6, 0.6]), 1.0);
        assert_eq!(state_mass(&[0], &[-1e-18]), 0.0);
        assert_eq!(state_mass(&[], &[1.0]), 0.0);
    }
}
