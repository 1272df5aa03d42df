"""Circle-RoPE: circular image-token index projection for rotary embeddings."""

__version__ = "0.1.0"
