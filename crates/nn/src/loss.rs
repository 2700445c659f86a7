//! Losses: the pairwise hinge ranking loss of §4.1.3 and its pairwise
//! accuracy metric.
//!
//! The cost model's goal "is not to accurately predict the ground truth
//! runtime … we want our cost model to learn the *ranking* of different
//! SuperSchedules" — so the training loss compares every pair of schedules
//! of the same matrix:
//!
//! `L = Σ_{(j,k)} sign(y_j − y_k) · max(0, 1 − (ŷ_j − ŷ_k))`
//!
//! with `sign(x) = 1` if `x > 0` else `0` (the paper's convention: each
//! ordered pair contributes only when the first is truly slower).

/// Pairwise hinge ranking loss over one matrix's batch of schedules.
///
/// `pred` and `truth` are parallel slices (predicted score and ground-truth
/// runtime per schedule). Returns `(mean pair loss, d loss / d pred)`.
/// Slices shorter than 2 produce zero loss and gradient.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pairwise_hinge(pred: &[f32], truth: &[f32]) -> (f32, Vec<f32>) {
    assert_eq!(pred.len(), truth.len(), "pred/truth length mismatch");
    let n = pred.len();
    let mut grad = vec![0.0f32; n];
    if n < 2 {
        return (0.0, grad);
    }
    let mut loss = 0.0f32;
    let mut pairs = 0usize;
    for j in 0..n {
        for k in 0..n {
            if j == k || truth[j] <= truth[k] {
                continue; // sign(y_j - y_k) = 0
            }
            pairs += 1;
            // y_j > y_k: schedule j is slower; want pred_j - pred_k >= 1.
            let margin = 1.0 - (pred[j] - pred[k]);
            if margin > 0.0 {
                loss += margin;
                grad[j] -= 1.0;
                grad[k] += 1.0;
            }
        }
    }
    if pairs == 0 {
        return (0.0, grad);
    }
    let scale = 1.0 / pairs as f32;
    for g in &mut grad {
        *g *= scale;
    }
    (loss * scale, grad)
}

/// Fraction of pairs whose predicted order matches the true runtime order —
/// the ranking-quality metric used to evaluate cost models.
///
/// Returns 1.0 when fewer than 2 elements.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pairwise_accuracy(pred: &[f32], truth: &[f32]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "pred/truth length mismatch");
    let n = pred.len();
    let mut correct = 0usize;
    let mut total = 0usize;
    for j in 0..n {
        for k in (j + 1)..n {
            if truth[j] == truth[k] {
                continue;
            }
            total += 1;
            if (truth[j] > truth[k]) == (pred[j] > pred[k]) {
                correct += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_ranked_wide_margin_has_zero_loss() {
        // truth ascending, pred ascending with margins > 1.
        let truth = [1.0, 2.0, 3.0];
        let pred = [0.0, 2.0, 4.0];
        let (loss, grad) = pairwise_hinge(&pred, &truth);
        assert_eq!(loss, 0.0);
        assert!(grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn inverted_ranking_has_positive_loss_and_corrective_gradient() {
        let truth = [1.0, 2.0]; // schedule 1 is slower
        let pred = [5.0, 0.0]; // model says schedule 1 is faster — wrong
        let (loss, grad) = pairwise_hinge(&pred, &truth);
        assert!(loss > 0.0);
        // Descent direction raises pred[1], lowers pred[0].
        assert!(grad[1] < 0.0, "pred[1] must increase (negative grad)");
        assert!(grad[0] > 0.0, "pred[0] must decrease");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let truth = [3.0, 1.0, 2.0, 5.0];
        let pred = [0.2, 0.9, -0.3, 0.4];
        let (l0, grad) = pairwise_hinge(&pred, &truth);
        let eps = 1e-3;
        for i in 0..pred.len() {
            let mut p = pred;
            p[i] += eps;
            let (l1, _) = pairwise_hinge(&p, &truth);
            let numeric = (l1 - l0) / eps;
            assert!(
                (grad[i] - numeric).abs() < 1e-2,
                "i={i}: analytic {} vs numeric {numeric}",
                grad[i]
            );
        }
    }

    #[test]
    fn degenerate_inputs() {
        let (l, g) = pairwise_hinge(&[1.0], &[1.0]);
        assert_eq!((l, g.len()), (0.0, 1));
        let (l, _) = pairwise_hinge(&[1.0, 2.0], &[5.0, 5.0]);
        assert_eq!(l, 0.0, "ties contribute nothing");
    }

    #[test]
    fn accuracy_metric() {
        assert_eq!(
            pairwise_accuracy(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]),
            1.0
        );
        assert_eq!(
            pairwise_accuracy(&[3.0, 2.0, 1.0], &[10.0, 20.0, 30.0]),
            0.0
        );
        let half = pairwise_accuracy(&[1.0, 2.0], &[5.0, 5.0]);
        assert_eq!(half, 1.0, "no comparable pairs → vacuously perfect");
    }
}
