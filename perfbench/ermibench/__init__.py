"""The live end-to-end benchmark: inputs, open-loop driver, metrics, tracing."""
