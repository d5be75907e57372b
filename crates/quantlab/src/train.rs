//! Pure-Rust training of the reference classifiers.
//!
//! The model family is a small CNN: a fixed random convolutional feature
//! extractor (24 filters, 5×5, stride 2, ReLU) followed by a trainable
//! MLP head with a configurable number of hidden layers, trained with
//! plain SGD on softmax cross-entropy. Only the MLP layers need
//! gradients, so backpropagation stays small while inference exercises
//! the full quantized conv + FC pipeline of the runtime. Deeper heads
//! compound quantization error across more quantize/requantize steps,
//! reproducing Figure 10's spread across network depths.

use testkit::Rng;
use utensor::{Shape, Tensor};

use unn::{Graph, LayerKind, NodeId, Weights};

use crate::dataset::{Dataset, Sample};

/// A trained classifier: graph + weights + the data it was trained on.
pub struct TrainedModel {
    /// conv → fc… → softmax graph.
    pub graph: Graph,
    /// Trained weights (the conv stays at its random initialization).
    pub weights: Weights,
    /// The dataset used.
    pub dataset: Dataset,
    /// Final training accuracy.
    pub train_accuracy: f64,
}

/// Training hyperparameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Hidden layer widths (each is an FC+ReLU layer before the
    /// classifier FC).
    pub hidden: Vec<usize>,
    /// SGD epochs.
    pub epochs: usize,
    /// Learning rate (halved every 80 epochs).
    pub lr: f32,
    /// RNG seed for weight init.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            hidden: vec![96],
            epochs: 150,
            lr: 0.001,
            seed: 7,
        }
    }
}

impl TrainConfig {
    /// The deeper head variant (compounds quantization error across more
    /// requantization steps).
    pub(crate) fn deep() -> TrainConfig {
        TrainConfig {
            hidden: vec![96, 64],
            epochs: 300,
            ..TrainConfig::default()
        }
    }
}

/// Builds the classifier graph for a dataset geometry.
pub(crate) fn classifier_graph(size: usize, classes: usize, hidden: &[usize]) -> Graph {
    let mut g = Graph::new("quantlab-cnn", Shape::nchw(1, 1, size, size));
    let mut cur = g.add_input_layer(
        "features",
        LayerKind::Conv {
            oc: 24,
            k: 5,
            stride: 2,
            pad: 2,
            relu: true,
        },
    );
    for (i, &h) in hidden.iter().enumerate() {
        cur = g.add(
            format!("fc{}", i + 1),
            LayerKind::FullyConnected { out: h, relu: true },
            cur,
        );
    }
    let logits = g.add(
        "classifier",
        LayerKind::FullyConnected {
            out: classes,
            relu: false,
        },
        cur,
    );
    g.add("softmax", LayerKind::Softmax, logits);
    g
}

/// Extracts the (fixed) convolutional features of one sample.
fn features(graph: &Graph, weights: &Weights, sample: &Sample) -> Vec<f32> {
    let conv = &graph.nodes()[0];
    let w = weights.of(NodeId(0));
    let out = unn::run_layer(
        &conv.kind,
        &[&sample.image],
        w.filter.as_ref(),
        w.bias.as_deref(),
        None,
    )
    .expect("feature conv");
    out.as_f32().expect("f32 features").to_vec()
}

/// One trainable dense layer.
struct Dense {
    w: Vec<f32>, // [out, in] row-major
    b: Vec<f32>,
    inp: usize,
    out: usize,
    relu: bool,
}

impl Dense {
    fn new(inp: usize, out: usize, relu: bool, rng: &mut Rng) -> Dense {
        let bound = (6.0 / inp as f32).sqrt();
        Dense {
            w: (0..inp * out)
                .map(|_| rng.gen_range(-bound..=bound))
                .collect(),
            b: vec![0.0; out],
            inp,
            out,
            relu,
        }
    }

    fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.out];
        for (i, yv) in y.iter_mut().enumerate() {
            let mut acc = self.b[i];
            let row = &self.w[i * self.inp..(i + 1) * self.inp];
            for (wv, xv) in row.iter().zip(x) {
                acc += wv * xv;
            }
            *yv = if self.relu { acc.max(0.0) } else { acc };
        }
        y
    }

    /// Backward pass: consumes upstream gradient `dy`, applies the SGD
    /// step, and returns the gradient w.r.t. the layer input.
    fn backward_step(&mut self, x: &[f32], y: &[f32], mut dy: Vec<f32>, lr: f32) -> Vec<f32> {
        if self.relu {
            for (d, &yv) in dy.iter_mut().zip(y) {
                if yv <= 0.0 {
                    *d = 0.0;
                }
            }
        }
        let mut dx = vec![0.0f32; self.inp];
        for (i, &d) in dy.iter().enumerate() {
            let row = &mut self.w[i * self.inp..(i + 1) * self.inp];
            for (j, rv) in row.iter_mut().enumerate() {
                dx[j] += *rv * d;
                *rv -= lr * d * x[j];
            }
            self.b[i] -= lr * d;
        }
        dx
    }
}

/// Trains the classifier on `dataset` and returns the complete model.
pub fn train(dataset: Dataset, cfg: &TrainConfig) -> TrainedModel {
    let graph = classifier_graph(dataset.size, dataset.classes, &cfg.hidden);
    let mut weights = Weights::random(&graph, cfg.seed).expect("weight init");
    let feat_dim = graph.infer_shapes().expect("shapes")[0].numel();
    let classes = dataset.classes;

    // Pre-extract features once (the conv is frozen), normalized to unit
    // RMS for stable SGD; the scale folds into the first FC afterwards.
    let mut train_feats: Vec<(Vec<f32>, usize)> = dataset
        .train
        .iter()
        .map(|s| (features(&graph, &weights, s), s.label))
        .collect();
    let mut sq_sum = 0.0f64;
    let mut count = 0usize;
    for (f, _) in &train_feats {
        for v in f {
            sq_sum += (*v as f64) * (*v as f64);
        }
        count += f.len();
    }
    let rms = ((sq_sum / count.max(1) as f64).sqrt() as f32).max(1e-6);
    for (f, _) in &mut train_feats {
        for v in f.iter_mut() {
            *v /= rms;
        }
    }

    // Build the MLP: hidden layers + classifier.
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xF00D);
    let mut layers: Vec<Dense> = Vec::new();
    let mut dim = feat_dim;
    for &h in &cfg.hidden {
        layers.push(Dense::new(dim, h, true, &mut rng));
        dim = h;
    }
    layers.push(Dense::new(dim, classes, false, &mut rng));

    let mut train_accuracy = 0.0;
    for epoch in 0..cfg.epochs {
        // Step decay keeps late epochs from oscillating.
        let lr = cfg.lr * 0.5f32.powi((epoch / 80) as i32);
        let mut correct = 0usize;
        for (f, label) in &train_feats {
            // Forward, keeping every activation for the backward pass.
            let mut acts: Vec<Vec<f32>> = vec![f.clone()];
            for layer in &layers {
                let next = layer.forward(acts.last().expect("nonempty"));
                acts.push(next);
            }
            let logits = acts.last().expect("logits");
            let mut p = logits.clone();
            ukernels::softmax_f32(&mut p);
            if ukernels::argmax(&p) == Some(*label) {
                correct += 1;
            }
            // Backward: softmax cross-entropy gradient, then each layer.
            let mut grad = p;
            grad[*label] -= 1.0;
            for (li, layer) in layers.iter_mut().enumerate().rev() {
                grad = layer.backward_step(&acts[li], &acts[li + 1], grad, lr);
            }
        }
        train_accuracy = correct as f64 / train_feats.len() as f64;
    }

    // Fold the feature normalization into the first FC.
    for v in layers[0].w.iter_mut() {
        *v /= rms;
    }

    // Install the trained parameters into the graph weights (nodes 1..).
    for (li, layer) in layers.iter().enumerate() {
        let node = weights.of_mut(NodeId(li + 1));
        node.filter = Some(
            Tensor::from_f32(Shape::new(vec![layer.out, layer.inp]), layer.w.clone())
                .expect("fc weights"),
        );
        node.bias = Some(layer.b.clone());
    }

    TrainedModel {
        graph,
        weights,
        dataset,
        train_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate, DatasetConfig};

    #[test]
    fn training_reaches_high_accuracy() {
        let ds = generate(&DatasetConfig::default());
        let model = train(ds, &TrainConfig::default());
        assert!(
            model.train_accuracy > 0.9,
            "train accuracy = {}",
            model.train_accuracy
        );
    }

    #[test]
    fn deep_head_also_trains() {
        let ds = generate(&DatasetConfig::default());
        let model = train(ds, &TrainConfig::deep());
        assert!(
            model.train_accuracy > 0.85,
            "deep train accuracy = {}",
            model.train_accuracy
        );
        // conv + 2 hidden + classifier + softmax.
        assert_eq!(model.graph.len(), 5);
    }

    #[test]
    fn trained_weights_are_installed() {
        let ds = generate(&DatasetConfig {
            train_per_class: 10,
            test_per_class: 2,
            ..DatasetConfig::default()
        });
        let model = train(
            ds,
            &TrainConfig {
                epochs: 1,
                ..TrainConfig::default()
            },
        );
        let fc1 = model.weights.of(NodeId(1));
        assert!(fc1.filter.is_some());
        // Trained weights differ from the random init.
        let fresh = Weights::random(&model.graph, 7).unwrap();
        assert!(!fc1
            .filter
            .as_ref()
            .unwrap()
            .bit_equal(fresh.of(NodeId(1)).filter.as_ref().unwrap()));
    }

    #[test]
    fn graph_shape_sane() {
        let g = classifier_graph(12, 16, &[96]);
        let shapes = g.infer_shapes().unwrap();
        assert_eq!(shapes[0].dims(), &[1, 24, 6, 6]);
        assert_eq!(shapes[1].dims(), &[1, 96, 1, 1]);
        assert_eq!(shapes[2].dims(), &[1, 16, 1, 1]);
    }
}
