package gameserver

import (
	"net"
	"time"
)

// netDial opens a raw UDP connection for protocol-abuse tests.
func netDial(addr string) (net.Conn, error) {
	return net.Dial("udp", addr)
}

// defaultBotConfig returns an ordinary-client bot: 24 commands a second,
// as the trace's ordinary clients send.
func defaultBotConfig(addr string) BotConfig {
	return BotConfig{
		ServerAddr:     addr,
		Name:           "bot",
		CmdRate:        24,
		ConnectTimeout: 2 * time.Second,
		Seed:           1,
	}
}
