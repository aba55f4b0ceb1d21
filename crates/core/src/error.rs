//! Error type of the extraction layer.

use std::error::Error;
use std::fmt;

use bemcap_basis::BasisError;
use bemcap_fmm::FmmError;
use bemcap_geom::GeomError;
use bemcap_linalg::LinalgError;
use bemcap_pfft::PfftError;

/// Errors from the extraction pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Basis instantiation failed.
    Basis(BasisError),
    /// A dense factorization or Krylov solve failed.
    Linalg(LinalgError),
    /// The multipole baseline failed.
    Fmm(FmmError),
    /// The precorrected-FFT baseline failed.
    Pfft(PfftError),
    /// The geometry has no conductors.
    EmptyGeometry,
    /// The execution core refused a submission because its admission
    /// queue is full — the structured backpressure signal of
    /// [`crate::exec::Executor`]. Retry later, or submit to an executor
    /// with a deeper queue; nothing was executed.
    Busy {
        /// Jobs already waiting in the executor queue.
        queued: usize,
        /// The executor's configured queue depth.
        depth: usize,
    },
    /// The execution core refused a submission with more jobs than its
    /// whole queue depth, so no retry can succeed; nothing was executed.
    OverDepth {
        /// Jobs in the refused submission.
        jobs: usize,
        /// The executor's configured queue depth.
        depth: usize,
    },
    /// A batch job failed. Carries the failing job's index in the input
    /// order, the swept parameter value when the job came from a
    /// parameterized family
    /// ([`crate::batch::BatchExtractor::extract_family`]), and the
    /// underlying error.
    BatchJob {
        /// Index of the failing job in the batch input order.
        index: usize,
        /// The swept parameter value, if the job had one.
        parameter: Option<f64>,
        /// What went wrong inside the job.
        source: Box<CoreError>,
    },
    /// The geometry layer rejected an input (unusable layout, bad
    /// window partition, parse failure of an embedded description).
    Geometry(GeomError),
    /// A full-chip window extraction failed. Carries the failing
    /// window's index in the partition's window order and the
    /// underlying error.
    ChipWindow {
        /// Index of the failing window.
        window: usize,
        /// What went wrong inside the window's extraction.
        source: Box<CoreError>,
    },
    /// A job panicked inside an executor worker. The panic was contained:
    /// only this job failed, and the worker went on with the next one.
    /// Carries the panic message.
    JobPanicked(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Basis(e) => write!(f, "basis construction failed: {e}"),
            CoreError::Linalg(e) => write!(f, "linear algebra failed: {e}"),
            CoreError::Fmm(e) => write!(f, "multipole solver failed: {e}"),
            CoreError::Pfft(e) => write!(f, "pfft solver failed: {e}"),
            CoreError::EmptyGeometry => write!(f, "geometry has no conductors"),
            CoreError::Busy { queued, depth } => {
                write!(f, "executor busy: {queued} jobs waiting at queue depth {depth}")
            }
            CoreError::OverDepth { jobs, depth } => {
                write!(f, "{jobs} jobs can never fit queue depth {depth}")
            }
            CoreError::BatchJob { index, parameter: Some(p), source } => {
                write!(f, "batch job {index} (parameter {p:e}) failed: {source}")
            }
            CoreError::BatchJob { index, parameter: None, source } => {
                write!(f, "batch job {index} failed: {source}")
            }
            CoreError::Geometry(e) => write!(f, "geometry rejected: {e}"),
            CoreError::ChipWindow { window, source } => {
                write!(f, "chip window {window} failed: {source}")
            }
            CoreError::JobPanicked(message) => write!(f, "job panicked: {message}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Basis(e) => Some(e),
            CoreError::Linalg(e) => Some(e),
            CoreError::Fmm(e) => Some(e),
            CoreError::Pfft(e) => Some(e),
            CoreError::EmptyGeometry
            | CoreError::Busy { .. }
            | CoreError::OverDepth { .. }
            | CoreError::JobPanicked(_) => None,
            CoreError::BatchJob { source, .. } => Some(source.as_ref()),
            CoreError::Geometry(e) => Some(e),
            CoreError::ChipWindow { source, .. } => Some(source.as_ref()),
        }
    }
}

impl From<BasisError> for CoreError {
    fn from(e: BasisError) -> Self {
        CoreError::Basis(e)
    }
}

impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

impl From<FmmError> for CoreError {
    fn from(e: FmmError) -> Self {
        CoreError::Fmm(e)
    }
}

impl From<PfftError> for CoreError {
    fn from(e: PfftError) -> Self {
        CoreError::Pfft(e)
    }
}

impl From<GeomError> for CoreError {
    fn from(e: GeomError) -> Self {
        CoreError::Geometry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = BasisError::EmptyGeometry.into();
        assert!(matches!(e, CoreError::Basis(_)));
        assert!(Error::source(&e).is_some());
        let e: CoreError = LinalgError::NotFinite.into();
        assert!(!format!("{e}").is_empty());
        assert!(Error::source(&CoreError::EmptyGeometry).is_none());
    }

    #[test]
    fn busy_reports_queue_state() {
        let e = CoreError::Busy { queued: 7, depth: 8 };
        let s = format!("{e}");
        assert!(s.contains("busy") && s.contains('7') && s.contains('8'), "{s}");
        assert!(Error::source(&e).is_none());
        let e = CoreError::OverDepth { jobs: 9, depth: 8 };
        let s = format!("{e}");
        assert!(s.contains("9 jobs") && s.contains("depth 8") && !s.contains("busy"), "{s}");
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn batch_job_context_in_display_and_source() {
        let e = CoreError::BatchJob {
            index: 3,
            parameter: Some(1.5e-6),
            source: Box::new(CoreError::EmptyGeometry),
        };
        let s = format!("{e}");
        assert!(s.contains("job 3") && s.contains("1.5e-6"), "{s}");
        assert!(Error::source(&e).is_some());
        let e = CoreError::BatchJob {
            index: 7,
            parameter: None,
            source: Box::new(CoreError::EmptyGeometry),
        };
        let s = format!("{e}");
        assert!(s.contains("job 7") && !s.contains("parameter"), "{s}");
    }
}
