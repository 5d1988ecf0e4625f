//! Request/response types, shared operands, and the service error enum.

use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;

use ftgemm_abft::faults::FaultInjector;
use ftgemm_abft::{FtError, FtPolicy, FtReport};
use ftgemm_core::{Matrix, Scalar};

/// An input operand of a [`GemmRequest`]: either owned outright by the
/// request, or a shared reference to a server-resident matrix.
///
/// The shared variant is what makes the clients-cache-operands-and-re-fire
/// pattern affordable: a frontend (the wire protocol's operand-handle
/// store, a batch planner replaying one weight matrix against many inputs)
/// keeps one `Arc<Matrix<T>>` and builds any number of requests against it
/// — cloning the request or fanning it out across submit surfaces bumps a
/// reference count instead of copying matrix data. The compute paths only
/// ever read `A`/`B`, so both variants serve identically.
#[derive(Debug, Clone)]
pub enum Operand<T: Scalar> {
    /// The request owns the matrix (the historical behavior; cloning the
    /// request deep-copies the data).
    Owned(Matrix<T>),
    /// The matrix is shared; cloning is a reference-count bump and the
    /// underlying buffer is never copied per request.
    Shared(Arc<Matrix<T>>),
}

impl<T: Scalar> Operand<T> {
    /// The shared buffer when this operand is [`Operand::Shared`].
    pub fn shared(&self) -> Option<&Arc<Matrix<T>>> {
        match self {
            Operand::Owned(_) => None,
            Operand::Shared(m) => Some(m),
        }
    }
}

impl<T: Scalar> Deref for Operand<T> {
    type Target = Matrix<T>;

    fn deref(&self) -> &Matrix<T> {
        match self {
            Operand::Owned(m) => m,
            Operand::Shared(m) => m,
        }
    }
}

impl<T: Scalar> From<Matrix<T>> for Operand<T> {
    fn from(m: Matrix<T>) -> Self {
        Operand::Owned(m)
    }
}

impl<T: Scalar> From<Arc<Matrix<T>>> for Operand<T> {
    fn from(m: Arc<Matrix<T>>) -> Self {
        Operand::Shared(m)
    }
}

impl<T: Scalar> From<&Arc<Matrix<T>>> for Operand<T> {
    fn from(m: &Arc<Matrix<T>>) -> Self {
        Operand::Shared(Arc::clone(m))
    }
}

/// One GEMM problem submitted to a [`GemmService`](crate::GemmService):
/// `C = alpha*A*B + beta*C`.
///
/// The request owns its output; the input operands are [`Operand`]s, so
/// they can be owned per request or shared (`Arc`-backed, zero-copy) with
/// other requests. The output matrix travels back to the caller inside the
/// [`GemmResponse`], so no *mutable* buffers are shared between the caller
/// and the service threads.
#[derive(Debug, Clone)]
pub struct GemmRequest<T: Scalar> {
    /// Scale on `A*B`.
    pub alpha: T,
    /// Left operand (`m x k`), owned or shared.
    pub a: Operand<T>,
    /// Right operand (`k x n`), owned or shared.
    pub b: Operand<T>,
    /// Scale on the input `C`.
    pub beta: T,
    /// Output operand (`m x n`), accumulated in place.
    pub c: Matrix<T>,
    /// Fault-tolerance policy for this request.
    pub policy: FtPolicy,
    /// Optional per-request fault injector (campaigns/tests).
    pub injector: Option<FaultInjector>,
    /// Optional deadline, relative to submission time. Admission control
    /// rejects the request up front ([`ServeError::DeadlineExceeded`]) when
    /// its path's measured ns/flop says the backlog makes it infeasible, and
    /// the dispatcher sheds it with the same error if it expires while
    /// queued.
    pub deadline: Option<Duration>,
}

impl<T: Scalar> GemmRequest<T> {
    /// `C = A*B` (`beta = 0`) with the default policy
    /// ([`FtPolicy::DetectCorrect`]).
    ///
    /// The output is shaped `a.nrows() x b.ncols()` *without* checking the
    /// inner dimensions agree; a `k` mismatch is reported when the request
    /// is submitted, or earlier by [`validate`](Self::validate).
    ///
    /// The product overwrites every element of the output, so it is not
    /// zeroed ([`Matrix::for_overwrite`]): it may hold a dropped buffer's
    /// values until the request completes. To accumulate (`beta != 0`),
    /// supply `C` with [`with_c`](Self::with_c); setting `beta` alone scales
    /// those values.
    pub fn new(a: impl Into<Operand<T>>, b: impl Into<Operand<T>>) -> Self {
        let (a, b) = (a.into(), b.into());
        let c = Matrix::for_overwrite(a.nrows(), b.ncols());
        GemmRequest {
            alpha: T::ONE,
            a,
            b,
            beta: T::ZERO,
            c,
            policy: FtPolicy::default(),
            injector: None,
            deadline: None,
        }
    }

    /// Replaces the output operand (enables `beta != 0` accumulation).
    #[must_use]
    pub fn with_c(mut self, beta: T, c: Matrix<T>) -> Self {
        self.beta = beta;
        self.c = c;
        self
    }

    /// Sets `alpha`.
    #[must_use]
    pub fn with_alpha(mut self, alpha: T) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the fault-tolerance policy.
    #[must_use]
    pub fn with_policy(mut self, policy: FtPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches a fault injector to this request.
    #[must_use]
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Sets a completion deadline relative to submission time.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Problem dimensions `(m, n, k)` after shape validation.
    pub fn validate(&self) -> Result<(usize, usize, usize), ServeError> {
        let (m, k) = (self.a.nrows(), self.a.ncols());
        let (kb, n) = (self.b.nrows(), self.b.ncols());
        let (mc, nc) = (self.c.nrows(), self.c.ncols());
        if k != kb || m != mc || n != nc {
            return Err(ServeError::Shape(format!(
                "A is {m}x{k}, B is {kb}x{n}, C is {mc}x{nc}"
            )));
        }
        Ok((m, n, k))
    }

    /// Multiply-add count of the problem (`2*m*n*k`), the size measure the
    /// scheduler uses to route between the batched and the matrix-parallel
    /// path.
    pub fn flops(&self) -> u64 {
        2 * self.a.nrows() as u64 * self.b.ncols() as u64 * self.a.ncols() as u64
    }
}

/// A completed request.
#[derive(Debug, Clone)]
pub struct GemmResponse<T: Scalar> {
    /// The output matrix (`alpha*A*B + beta*C` of the request operands).
    pub c: Matrix<T>,
    /// Fault-tolerance counters for this request (all-zero under
    /// [`FtPolicy::Off`]).
    pub report: FtReport,
    /// True when the request ran on the batched path (coalesced with other
    /// small requests); false when it ran matrix-parallel.
    pub batched: bool,
}

/// Errors a request can fail with.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Operand shapes are inconsistent (rejected at submit time).
    Shape(String),
    /// The fault-tolerant driver gave up (unrecoverable checksum pattern
    /// after the policy's retry budget, or an internal driver error).
    Ft(FtError),
    /// The service is shutting down: either a submission arrived after
    /// intake closed, or the request was still queued when
    /// [`shutdown_now`](crate::GemmService::shutdown_now)
    /// aborted the drain — parked requests are *failed* with this error
    /// rather than left to hang their handles.
    Closed,
    /// The request's deadline cannot (or could not) be met. Returned at
    /// submit time when admission control's measured ns/flop model says the
    /// queued backlog makes the deadline infeasible, and at dispatch time
    /// when a queued request's deadline expired before it reached a worker
    /// (load shedding). The string describes which case fired and the
    /// estimate involved.
    DeadlineExceeded(String),
}

impl ServeError {
    /// The error's **stable wire discriminant**, the number the network
    /// protocol (`ftgemm-net`) puts in error frames.
    ///
    /// These values are a compatibility contract: they must never be
    /// renumbered, and a new variant must take a new, previously unused
    /// number. Code 4 is retired (it was the bounded queue's `Overloaded`)
    /// and must never be reused. The match below is deliberately exhaustive
    /// (no `_` arm), so adding a variant without choosing its code is a
    /// compile error instead of a silent renumbering;
    /// `wire_codes_are_pinned` pins each assignment.
    pub fn wire_code(&self) -> u16 {
        match self {
            ServeError::Shape(_) => 1,
            ServeError::Ft(_) => 2,
            ServeError::Closed => 3,
            ServeError::DeadlineExceeded(_) => 5,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shape(detail) => write!(f, "shape mismatch: {detail}"),
            ServeError::Ft(e) => write!(f, "fault-tolerant driver error: {e}"),
            ServeError::Closed => write!(f, "service closed"),
            ServeError::DeadlineExceeded(detail) => {
                write!(f, "deadline exceeded: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FtError> for ServeError {
    fn from(e: FtError) -> Self {
        ServeError::Ft(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_request_defaults() {
        let r = GemmRequest::new(Matrix::<f64>::zeros(3, 4), Matrix::<f64>::zeros(4, 5));
        assert_eq!(r.validate().unwrap(), (3, 5, 4));
        assert_eq!(r.c.nrows(), 3);
        assert_eq!(r.c.ncols(), 5);
        assert_eq!(r.policy, FtPolicy::DetectCorrect);
        assert_eq!(r.flops(), 2 * 3 * 5 * 4);
    }

    #[test]
    fn validate_rejects_mismatch() {
        // Inner dimensions disagree.
        let r = GemmRequest::new(Matrix::<f64>::zeros(3, 4), Matrix::<f64>::zeros(5, 6));
        assert!(matches!(r.validate(), Err(ServeError::Shape(_))));
        // The supplied output is not `m x n`.
        let r = GemmRequest::new(Matrix::<f64>::zeros(3, 4), Matrix::<f64>::zeros(4, 6))
            .with_c(1.0, Matrix::zeros(3, 5));
        assert!(matches!(r.validate(), Err(ServeError::Shape(_))));
    }

    #[test]
    fn setters() {
        let r = GemmRequest::new(Matrix::<f64>::zeros(2, 2), Matrix::<f64>::zeros(2, 2))
            .with_alpha(2.0)
            .with_c(0.5, Matrix::filled(2, 2, 1.0))
            .with_policy(FtPolicy::Detect);
        assert_eq!(r.alpha, 2.0);
        assert_eq!(r.beta, 0.5);
        assert_eq!(r.policy, FtPolicy::Detect);
        assert_eq!(r.deadline, None);
        let r = r.with_deadline(Duration::from_millis(5));
        assert_eq!(r.deadline, Some(Duration::from_millis(5)));
    }

    #[test]
    fn deadline_error_displays_detail() {
        let e = ServeError::DeadlineExceeded("eta 5ms > deadline 1ms".into());
        assert!(e.to_string().contains("deadline exceeded"));
        assert!(e.to_string().contains("eta 5ms"));
    }

    /// Satellite pin: submitting against shared server-resident operands
    /// copies no matrix data. Requests built from the same `Arc` operands
    /// alias the original buffers (pointer identity), and cloning such a
    /// request is a reference-count bump, not a data clone.
    #[test]
    fn shared_operands_are_zero_copy_per_request() {
        let a = Arc::new(Matrix::<f64>::random(24, 16, 1));
        let b = Arc::new(Matrix::<f64>::random(16, 20, 2));
        let a_ptr = a.as_slice().as_ptr();
        let b_ptr = b.as_slice().as_ptr();

        let reqs: Vec<_> = (0..8).map(|_| GemmRequest::<f64>::new(&a, &b)).collect();
        for r in &reqs {
            assert!(
                std::ptr::eq(r.a.as_slice().as_ptr(), a_ptr),
                "request copied operand A instead of sharing it"
            );
            assert!(std::ptr::eq(r.b.as_slice().as_ptr(), b_ptr));
        }
        // 8 requests + the locals: exactly one buffer, 9 strong refs.
        assert_eq!(Arc::strong_count(&a), 9);
        assert_eq!(Arc::strong_count(&b), 9);

        // Cloning a shared-operand request bumps the count; it never
        // duplicates the data.
        let cloned = reqs[0].clone();
        assert_eq!(Arc::strong_count(&a), 10);
        assert!(std::ptr::eq(cloned.a.as_slice().as_ptr(), a_ptr));
        drop(cloned);
        drop(reqs);
        assert_eq!(Arc::strong_count(&a), 1);
        assert!(GemmRequest::<f64>::new(&a, &b).a.shared().is_some());

        // Owned operands still deep-copy on clone (the historical shape).
        let owned = GemmRequest::new(Matrix::<f64>::zeros(2, 2), Matrix::<f64>::zeros(2, 2));
        assert!(owned.a.shared().is_none());
    }

    /// Satellite pin: the wire discriminants of [`ServeError`] are a
    /// stable contract. If this test fails, a variant was renumbered —
    /// which breaks every client speaking the wire protocol. Add new
    /// variants with NEW numbers instead.
    #[test]
    fn wire_codes_are_pinned() {
        use ftgemm_abft::FtError;
        let all = [
            (ServeError::Shape("x".into()), 1),
            (
                ServeError::Ft(FtError::Unrecoverable {
                    jc: 0,
                    pc: 0,
                    detail: "x".into(),
                }),
                2,
            ),
            (ServeError::Closed, 3),
            (ServeError::DeadlineExceeded("x".into()), 5),
        ];
        for (err, code) in all {
            assert_eq!(err.wire_code(), code, "renumbered: {err}");
        }
    }
}
