//! The [`GemmOp`] problem builder.

use crate::api::plan::{Exec, GemmPlan};
use ftgemm_abft::faults::FaultInjector;
use ftgemm_abft::{FtConfig, FtError, FtPolicy, FtResult};
use ftgemm_core::{CoreError, MatRef, Matrix, Scalar};
use ftgemm_serve::GemmRequest;
use std::time::Duration;

/// Anything that can lend a [`MatRef`] view: owned matrices and existing
/// views alike, so `GemmOp::new(&a, &b)` works for both.
pub trait AsMatRef<T: Scalar> {
    /// Borrows the value as a column-major matrix view.
    fn as_mat_ref(&self) -> MatRef<'_, T>;
}

impl<T: Scalar> AsMatRef<T> for Matrix<T> {
    fn as_mat_ref(&self) -> MatRef<'_, T> {
        self.as_ref()
    }
}

impl<T: Scalar> AsMatRef<T> for MatRef<'_, T> {
    fn as_mat_ref(&self) -> MatRef<'_, T> {
        *self
    }
}

/// A GEMM problem description: `C = alpha * A * B + beta * C`.
///
/// Build one with [`GemmOp::new`], adjust it with the chained setters, then
/// either turn it into a reusable [`GemmPlan`] with [`plan`](GemmOp::plan)
/// or into a serving-layer [`GemmRequest`] with
/// [`to_request`](GemmOp::to_request). The operands are *borrowed*: the op
/// (and any plan made from it) stays valid for as long as `A` and `B` live.
#[derive(Debug, Clone)]
pub struct GemmOp<'a, T: Scalar> {
    pub(crate) a: MatRef<'a, T>,
    pub(crate) b: MatRef<'a, T>,
    pub(crate) alpha: T,
    pub(crate) beta: T,
    pub(crate) policy: FtPolicy,
    pub(crate) injector: Option<FaultInjector>,
    pub(crate) cfg_override: Option<FtConfig>,
    pub(crate) deadline: Option<Duration>,
}

impl<'a, T: Scalar> GemmOp<'a, T> {
    /// Describes `C = A * B` (i.e. `alpha = 1`, `beta = 0`) with the
    /// default fault-tolerance policy
    /// ([`FtPolicy::DetectCorrect`](FtPolicy)).
    pub fn new(a: &'a impl AsMatRef<T>, b: &'a impl AsMatRef<T>) -> Self {
        GemmOp {
            a: a.as_mat_ref(),
            b: b.as_mat_ref(),
            alpha: T::ONE,
            beta: T::ZERO,
            policy: FtPolicy::default(),
            injector: None,
            cfg_override: None,
            deadline: None,
        }
    }

    /// Attaches a relative completion deadline: served requests built from
    /// this op are admission-checked against the measured completion-time
    /// model and shed if the deadline expires in queue. Only the serving
    /// layer reads this; one-shot plans ignore it.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the scale on `A*B` (default `1`).
    #[must_use]
    pub fn alpha(mut self, alpha: T) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the scale on the input `C` (default `0`).
    #[must_use]
    pub fn beta(mut self, beta: T) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the fault-tolerance policy (default
    /// [`FtPolicy::DetectCorrect`](FtPolicy)).
    #[must_use]
    pub fn ft(mut self, policy: FtPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches a fault injector (fault-injection campaigns and tests).
    #[must_use]
    pub fn injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Overrides the full driver configuration (tolerance model, fusion
    /// switches, recovery budget) instead of deriving it from the policy.
    /// Power-user/ablation hook.
    #[must_use]
    pub fn ft_config(mut self, cfg: FtConfig) -> Self {
        self.cfg_override = Some(cfg);
        self
    }

    /// Problem dimensions `(m, n, k)` as described (not yet validated).
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.a.nrows(), self.b.ncols(), self.a.ncols())
    }

    /// Multiply-add count (`2*m*n*k`) — the size measure [`Exec::Auto`] and
    /// the serving scheduler route by.
    pub fn flops(&self) -> u64 {
        let (m, n, k) = self.dims();
        2 * m as u64 * n as u64 * k as u64
    }

    /// Resolves the effective driver configuration: `None` means "run the
    /// unprotected driver".
    pub(crate) fn resolve_config(&self) -> Option<FtConfig> {
        match &self.cfg_override {
            Some(cfg) => {
                let mut cfg = cfg.clone();
                if let Some(inj) = &self.injector {
                    cfg.injector = Some(inj.clone());
                }
                Some(cfg)
            }
            None => self.policy.to_config(self.injector.clone()),
        }
    }

    /// Validates the operand shapes and precomputes a reusable
    /// [`GemmPlan`]: blocking parameters, checksum workspaces, and the
    /// execution context are all fixed here, so every subsequent
    /// [`GemmPlan::run`] is allocation-free.
    ///
    /// Fails with [`FtError::Core`] if `a.ncols() != b.nrows()`; the output
    /// shape is checked by [`GemmPlan::run`], which is when `C` first
    /// appears.
    pub fn plan(self, exec: Exec<'_, T>) -> FtResult<GemmPlan<'a, T>> {
        let (m, k) = (self.a.nrows(), self.a.ncols());
        let (kb, n) = (self.b.nrows(), self.b.ncols());
        if k != kb {
            return Err(FtError::Core(CoreError::ShapeMismatch {
                context: format!("A is {m}x{k} but B is {kb}x{n}"),
            }));
        }
        GemmPlan::build(self, exec)
    }

    /// Copies the operands into an owned serving-layer request carrying
    /// this op's `alpha`, policy, deadline and injector, ready to submit
    /// to a [`GemmService`](crate::GemmService). A request owns its output,
    /// so `beta`/`C` are attached with [`GemmRequest::with_c`] rather than
    /// inherited from the op. Shapes are checked at submit, or earlier by
    /// [`GemmRequest::validate`].
    ///
    /// # Panics
    /// If [`ft_config`](GemmOp::ft_config) was used: a served request
    /// carries an [`FtPolicy`] only, so a full configuration override
    /// cannot be expressed — dropping it silently would run the request
    /// under different semantics than the op described. Use
    /// [`ft`](GemmOp::ft) for ops that become requests.
    pub fn to_request(&self) -> GemmRequest<T> {
        assert!(
            self.cfg_override.is_none(),
            "GemmOp::to_request cannot carry an ft_config override: served \
             requests are configured by FtPolicy only (use GemmOp::ft)"
        );
        GemmRequest {
            alpha: self.alpha,
            policy: self.policy,
            injector: self.injector.clone(),
            deadline: self.deadline,
            ..GemmRequest::new(self.a.to_owned(), self.b.to_owned())
        }
    }
}
