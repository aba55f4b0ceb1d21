//! The common interface shared by the §4.2 techniques.

use bemcap_quad::analytic;

/// One evaluation request for the 2-D expression f₂D of equation (13):
/// the potential integral of the rectangle `[x0,x1] × [y0,y1]` at in-plane
/// target `(px, py)` with perpendicular offset `z`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RectQuery {
    /// Rectangle lower x bound.
    pub x0: f64,
    /// Rectangle upper x bound.
    pub x1: f64,
    /// Rectangle lower y bound.
    pub y0: f64,
    /// Rectangle upper y bound.
    pub y1: f64,
    /// Perpendicular offset of the target plane.
    pub z: f64,
    /// Target x.
    pub px: f64,
    /// Target y.
    pub py: f64,
}

impl RectQuery {
    /// Translation-invariant canonical parameters
    /// `(u_lo, u_hi, v_lo, v_hi, z)` with `u = px − x′`, `v = py − y′`.
    ///
    /// Translation invariance is why the "6-parameter" table of §4.2.1
    /// needs only five axes in practice.
    pub fn canonical(&self) -> [f64; 5] {
        [self.px - self.x1, self.px - self.x0, self.py - self.y1, self.py - self.y0, self.z]
    }
}

/// An evaluator of the 2-D analytic expression — the object Table 1
/// compares. Implementations trade accuracy, time and memory.
pub trait Integrator2d {
    /// Evaluates f₂D for the query.
    fn eval(&self, q: &RectQuery) -> f64;

    /// Bytes of table storage held by the technique (the "Memory" column
    /// of Table 1).
    fn memory_bytes(&self) -> usize {
        0
    }

    /// Display name for report tables.
    fn name(&self) -> &'static str;
}

/// Row 0 of Table 1: the exact closed form evaluated with libm `ln`/`atan`.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticIntegrator;

impl Integrator2d for AnalyticIntegrator {
    fn eval(&self, q: &RectQuery) -> f64 {
        analytic::rect_potential(q.x0, q.x1, q.y0, q.y1, q.z, q.px, q.py)
    }

    fn name(&self) -> &'static str {
        "Original analytical expr."
    }
}

/// Deterministic query generator covering the Table 1 evaluation domain:
/// unit-scale rectangles with targets within a few diameters, z bounded
/// away from the singular plane.
pub fn sample_queries(count: usize, seed: u64) -> Vec<RectQuery> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..count)
        .map(|_| {
            let x0 = next() * 0.5;
            let x1 = x0 + 0.3 + 0.7 * next();
            let y0 = next() * 0.5;
            let y1 = y0 + 0.3 + 0.7 * next();
            RectQuery {
                x0,
                x1,
                y0,
                y1,
                z: 0.15 + 0.85 * next(),
                px: -1.0 + 3.0 * next(),
                py: -1.0 + 3.0 * next(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_params() {
        let q = RectQuery { x0: 0.0, x1: 1.0, y0: 2.0, y1: 3.0, z: 0.5, px: 2.0, py: 2.5 };
        assert_eq!(q.canonical(), [1.0, 2.0, -0.5, 0.5, 0.5]);
    }

    #[test]
    fn analytic_matches_quad_crate() {
        let q = RectQuery { x0: 0.0, x1: 1.0, y0: 0.0, y1: 2.0, z: 0.7, px: 0.3, py: 0.4 };
        let v = AnalyticIntegrator.eval(&q);
        let r = analytic::rect_potential(0.0, 1.0, 0.0, 2.0, 0.7, 0.3, 0.4);
        assert_eq!(v, r);
        assert_eq!(AnalyticIntegrator.memory_bytes(), 0);
    }

    #[test]
    fn sample_queries_deterministic_and_in_domain() {
        let a = sample_queries(100, 42);
        let b = sample_queries(100, 42);
        assert_eq!(a, b);
        for q in &a {
            assert!(q.x1 > q.x0 && q.y1 > q.y0);
            assert!(q.z >= 0.15 && q.z <= 1.0);
        }
        // Different seeds differ.
        assert_ne!(a, sample_queries(100, 43));
    }
}
