package main

import "repro/internal/readhttp"

// serveChunk is the read surface's streaming chunk, which the streaming
// tests size their payloads against.
const serveChunk = readhttp.ChunkBytes
