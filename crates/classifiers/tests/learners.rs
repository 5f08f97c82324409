//! Shared behavioural contract for every incremental learner: learn a
//! separable problem, survive trait-object usage, clone faithfully, and
//! reset cleanly.

use ficsum_classifiers::{
    AdaptiveRandomForest, Classifier, DynamicWeightedMajority, GaussianNaiveBayes, HoeffdingTree,
    MajorityClass,
};
use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

fn learners(d: usize, k: usize) -> Vec<Box<dyn Classifier>> {
    vec![
        Box::new(MajorityClass::new(d, k)),
        Box::new(GaussianNaiveBayes::new(d, k)),
        Box::new(HoeffdingTree::new(d, k)),
        Box::new(AdaptiveRandomForest::new(d, k)),
        Box::new(DynamicWeightedMajority::new(d, k)),
    ]
}

fn blob(rng: &mut Xoshiro256pp, k: usize) -> (Vec<f64>, usize) {
    let y = rng.random_range(0..k);
    let x = vec![y as f64 * 2.0 + rng.random::<f64>(), rng.random()];
    (x, y)
}

#[test]
fn every_learner_beats_chance_on_separable_blobs() {
    for mut clf in learners(2, 3) {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..1200 {
            let (x, y) = blob(&mut rng, 3);
            clf.train(&x, y);
        }
        let mut correct = 0;
        for _ in 0..300 {
            let (x, y) = blob(&mut rng, 3);
            if clf.predict(&x) == y {
                correct += 1;
            }
        }
        // MajorityClass is the floor (~1/3); everything else far higher.
        assert!(correct > 80, "accuracy {correct}/300");
    }
}

#[test]
fn probabilities_are_distributions() {
    for mut clf in learners(2, 4) {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        for _ in 0..300 {
            let (x, y) = blob(&mut rng, 4);
            clf.train(&x, y);
        }
        let p = clf.predict_proba(&[1.0, 0.5]);
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(p.iter().all(|&v| (0.0..=1.0 + 1e-12).contains(&v)));
    }
}

#[test]
fn clone_box_preserves_predictions() {
    for mut clf in learners(2, 2) {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for _ in 0..800 {
            let (x, y) = blob(&mut rng, 2);
            clf.train(&x, y);
        }
        let clone = clf.clone_box();
        for _ in 0..100 {
            let (x, _) = blob(&mut rng, 2);
            assert_eq!(clf.predict(&x), clone.predict(&x));
        }
    }
}

#[test]
fn reset_returns_to_untrained_state() {
    for mut clf in learners(2, 2) {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        for _ in 0..500 {
            let (x, y) = blob(&mut rng, 2);
            clf.train(&x, y);
        }
        clf.reset();
        assert_eq!(clf.n_trained(), 0);
    }
}

#[test]
fn dimensions_are_reported() {
    for clf in learners(2, 3) {
        assert_eq!(clf.n_features(), 2);
        assert_eq!(clf.n_classes(), 3);
    }
}

#[test]
fn only_trees_expose_contributions_and_growth() {
    let mut tree = HoeffdingTree::new(2, 2);
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    for _ in 0..2000 {
        let (x, y) = blob(&mut rng, 2);
        tree.train(&x, y);
    }
    assert!(tree.feature_contributions(&[0.5, 0.5]).is_some());
    let mut nb = GaussianNaiveBayes::new(2, 2);
    nb.train(&[0.1, 0.2], 0);
    assert!(nb.feature_contributions(&[0.1, 0.2]).is_none());
    assert!(!nb.take_growth_event());
}

#[test]
fn predict_contributions_with_agrees_with_the_separate_calls() {
    // The tree overrides the fused call; every other learner takes the
    // trait default, which predicts and reports no attribution.
    for mut clf in learners(2, 3) {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        for _ in 0..1500 {
            let (x, y) = blob(&mut rng, 3);
            clf.train(&x, y);
        }
        let (mut out, mut proba, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..100 {
            let (x, _) = blob(&mut rng, 3);
            let (label, attributed) = clf.predict_contributions_with(&x, &mut out, &mut proba);
            assert_eq!(label, clf.predict_with(&x, &mut scratch));
            match clf.feature_contributions(&x) {
                Some(c) => {
                    assert!(attributed);
                    assert_eq!(
                        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        c.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                    );
                }
                None => assert!(!attributed, "a learner without attribution must say so"),
            }
        }
    }
}
