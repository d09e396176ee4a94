"""Mixed-precision post-training quantization with joint weight-activation
subspace selection: calibration statistics, a closed-form weighted-PCA
subspace solver, simulated mixed-precision linear layers, and error analysis
against single-sided baselines."""
